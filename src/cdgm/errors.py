"""Exception types shared across the package."""


class CdgmError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(CdgmError):
    """A matrix required to be positive definite is not (pivot <= 1e-12)."""


class ShapeMismatch(CdgmError):
    """Array dimensions are inconsistent with the operation's contract."""


class NonFiniteGradient(CdgmError):
    """An optimizer step received NaN or infinite gradients."""


class NonFiniteLoss(CdgmError):
    """Training produced a NaN or infinite loss; the message names the epoch."""


class CyclicGraph(CdgmError):
    """A matrix expected to encode a DAG contains a directed cycle."""


class DegenerateLabels(CdgmError):
    """Ranking metrics need at least one positive and one negative label."""


class DomainError(CdgmError):
    """A closed-form expression was evaluated outside its domain."""


class UsageError(CdgmError):
    """A command-line argument or setting is invalid; the command exits 1."""
