"""The one way cdgm puts a file on disk and the one guard on what it reads:
``write_atomic`` makes the file's directory and moves a hidden temporary
file into place, so a killed process leaves each file old or new, never
torn. An artifact of several files (a dataset, a model) is replaced one
file at a time, not as a whole.
"""

import contextlib
import os
from pathlib import Path

from .errors import CdgmError


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` through ``.<name>.tmp`` and
    ``os.replace``; a failed write leaves the old file and no temporary."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def reading(path):
    """Re-raise a ``CdgmError``, ``AttributeError``, ``KeyError``, ``TypeError``
    or ``ValueError`` from the block as ``CdgmError("<path>: <Type>: <msg>")``."""
    try:
        yield
    except (CdgmError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CdgmError(f"{path}: {type(exc).__name__}: {exc}") from exc
