"""The command line reads every value through one reader per declared type:
a flag that sets a declared field reads as that field's config key does,
and every command and config that README documents still parses."""

import re
import shlex
from pathlib import Path

import pytest

from cdgm import cli
from cdgm.errors import UsageError

README = Path(__file__).resolve().parent.parent / "README.md"

# Each valued flag that sets a config key: (command line before it, flag, key).
MIRRORED = [("generate --setting G1 --n 10 --out o", "--p", "gen.p"),
            ("generate --setting D1 --n 10 --out o", "--noise-sd", "gen.noise_sd"),
            ("train --data d --out o", "--seed", "dnn.seed"),
            ("train --data d --out o", "--epochs", "dnn.epochs"),
            ("train --data d --out o", "--lr", "dnn.lr"),
            ("baseline --data d --out o", "--n-lambdas", "lasso.n_lambdas"),
            ("baseline --data d --out o", "--lambda-min-ratio", "lasso.lambda_min_ratio")]
# What an int and a float key make of each text, as repr (None: a usage error).
# An int is whole and exact, however it is written; a float is float().
READ = {"1e4": ("10000", "10000.0"),
        "12.5": (None, "12.5"),
        "9007199254740993": ("9007199254740993", "9007199254740992.0"),
        "1e23": ("1" + "0" * 23, "1e+23"),
        "1e400": (None, "inf"),
        "nan": (None, "nan"),
        "abc": (None, None),
        "": (None, None)}


def _read(parse):
    """repr of what ``parse()`` returns, or None when it is a usage error."""
    try:
        return repr(parse())
    except UsageError:
        return None


@pytest.mark.parametrize("text", READ)
@pytest.mark.parametrize("line,flag,key", MIRRORED)
def test_flag_reads_a_value_as_its_config_key_does(line, flag, key, text):
    _, name, tp = cli._config_keys()[key]
    by_key = _read(lambda: cli._cast(tp, f"config key {key!r}", text))
    by_flag = _read(lambda: cli.build_parser().parse_args([*line.split(), flag, text]).fields)
    assert by_key == READ[text][tp is float]
    assert by_flag == (by_key and f"{{{name!r}: {by_key}}}")  # the flag sets only its field


def test_generate_sizes_read_by_the_integer_rule():
    args = cli.build_parser().parse_args(
        "generate --setting G1 --n 1e3 --splits 8e2,1e2,100 --out o".split())
    assert (args.n, args.splits) == (1000, (800, 100, 100))


def test_bounds_prints_each_n_exactly(capsys):
    assert cli.main(["bounds", "--n", "9007199254740993,1e23", "--p", "50"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["9007199254740993", "1" + "0" * 23]


def _blocks(text: str):
    return re.findall(r"```[a-z]*\n(.*?)```", text, re.S)


def test_readme_commands_and_config_parse(tmp_path):
    blocks = _blocks(README.read_text())
    (commands,) = [b for b in blocks if b.startswith("# dataset to disk")]
    lines = [line for line in commands.splitlines() if line.startswith("cdgm ")]
    assert len(lines) == 7
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]
    (config,) = [b for b in blocks if b.startswith("setting = G1\n")]
    (tmp_path / "g1.cfg").write_text(config)
    cfg = cli.parse_config_file(tmp_path / "g1.cfg")
    assert (cfg.setting, cfg.n_train, cfg.generator) == ("G1", 10_000, {"p": 50})
