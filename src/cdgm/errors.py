"""Exception types shared across the package."""


class CdgmError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(CdgmError):
    """A matrix required to be positive definite is not (pivot <= 1e-12)."""


class ShapeMismatch(CdgmError):
    """Array dimensions are inconsistent with the operation's contract."""


class StaleCache(CdgmError):
    """A backward pass received a cache that does not match its gradients."""


class NonFiniteGradient(CdgmError):
    """An optimizer step received NaN or infinite gradients."""


class NonFiniteLoss(CdgmError):
    """Training produced a NaN or infinite loss; carries the epoch index."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class CyclicGraph(CdgmError):
    """A matrix expected to encode a DAG contains a directed cycle."""


class AllZeroGraph(CdgmError):
    """Normalization requested on a graph whose entries are all zero."""


class MarginViolated(CdgmError):
    """Threshold selection requires strong-edge floor > weak-edge ceiling."""


class DegenerateLabels(CdgmError):
    """Ranking metrics need at least one positive and one negative label."""


class DomainError(CdgmError):
    """A closed-form expression was evaluated outside its domain."""


class UsageError(CdgmError):
    """A command-line argument or setting is invalid; the command exits 1."""
