"""Closed-form diagnostic calculators relating sample size, dimension, and
network size to estimation error.

Every output is order-level: constants hidden by the underlying analysis
are taken as one, so values indicate scaling behavior, not certified
bounds. The CLI labels them accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass
class BoundInputs:
    """Problem constants consumed by the calculators.

    lipschitz / strong_convexity describe the loss (4 and 1 for squared
    error on unit-bounded data); smoothness is the Holder order of the
    target coefficient functions; pseudo_dim measures hypothesis-class
    capacity; eigen_floor lower-bounds the conditional second-moment
    eigenvalues; (weak_max, strong_min, eta) describe the edge-magnitude
    margin and where the threshold sits inside it.
    """

    n: int = 10_000
    p: int = 50
    q: int = 2
    lipschitz: float = 4.0
    strong_convexity: float = 1.0
    smoothness: float = 2.0
    delta: float = 0.05
    pseudo_dim: float = 100.0
    eta: float = 0.5
    weak_max: float = 0.0
    strong_min: float = 0.3
    eigen_floor: float = 1.0


def _require(cond: bool, message: str):
    if not cond:
        raise DomainError(message)


def _common_checks(b: BoundInputs):
    _require(b.n > 0 and b.p >= 1 and b.q >= 1, "n, p, q must be positive")
    _require(b.lipschitz > 0 and b.strong_convexity > 0, "loss constants must be positive")
    _require(0.0 < b.delta < 1.0, "failure probability must lie in (0, 1)")
    _require(b.n * b.lipschitz * b.p > 1.0, "log(n L p) requires n L p > 1")


def excess_risk_rate(b: BoundInputs, mode: str = "lipschitz") -> float:
    """Balanced approximation/estimation rate for the coefficient network.

    mode='lipschitz' uses exponent m/(m+q); mode='smooth' uses the
    refinement exponent m/(2m+q) available when the loss gradient is also
    Lipschitz. The base expression is identical in both modes.
    """
    _common_checks(b)
    _require(b.smoothness > 0, "smoothness order must be positive")
    if mode == "lipschitz":
        exponent = b.smoothness / (b.smoothness + b.q)
    elif mode == "smooth":
        exponent = b.smoothness / (2.0 * b.smoothness + b.q)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    base = (
        b.lipschitz * b.smoothness ** 4 * b.q ** 6 * b.p ** 2
        * math.log(b.n * b.lipschitz * b.p) ** 2
        * math.log(b.p)
        * math.log(1.0 / b.delta)
        * math.log(1.0 / b.strong_convexity)
    ) / (b.strong_convexity * b.n)
    _require(base >= 0.0, "rate base is negative (strong convexity > 1?)")
    return base ** exponent


def network_size_for_rate(m: float, q: int, rate: float) -> tuple[int, int]:
    """Depth and width sufficient to reach a target approximation rate:
    depth ceil(rate^{-q/2m}), width ceil((2e)^q C(m+q, q) q^2).

    The ceilings take a 1e-9 slack so boundary values (rate -> 1 gives
    depth 1) are not bumped up by float fuzz. q must be below 20, where
    ``_binom`` reproduces scipy's binom; the cut loses no exact width,
    as from q = 19 on the width exceeds 2**53 for every m > 0.
    """
    _require(m > 0 and q >= 1, "m and q must be positive")
    _require(q < 20, "q must be below 20: the width would exceed 2**53")
    _require(0.0 < rate < 1.0, "rate must lie in (0, 1)")
    depth = math.ceil(rate ** (-q / (2.0 * m)) - 1e-9)
    width = math.ceil((2.0 * math.e) ** q * _binom(m + q, q) * q * q - 1e-9)
    return depth, width


def _binom(n: float, k: int) -> float:
    """C(n, k) for real n > 0 and integer 0 <= k < 20, by the product formula.

    The same operations, in the same order, as ``scipy.special.binom`` in
    this case: k is first reduced to n - k when n is an integer and
    k > n / 2, and the running product is rescaled once it passes 1e50.
    """
    n, kx = float(n), float(k)
    if n == math.floor(n) and kx > n / 2:
        kx = n - kx
    num = den = 1.0
    for i in range(1, 1 + int(kx)):
        num *= i + n - kx
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def generalization_error_term(b: BoundInputs) -> float:
    """Estimation-error component: L^2 d_P p^2 log(nLp) log(1/delta) / (alpha n)."""
    _common_checks(b)
    _require(b.pseudo_dim > 0, "pseudo-dimension must be positive")
    return (
        b.lipschitz ** 2 * b.pseudo_dim * b.p ** 2
        * math.log(b.n * b.lipschitz * b.p)
        * math.log(1.0 / b.delta)
    ) / (b.strong_convexity * b.n)


def edge_recovery_bound(b: BoundInputs, approx_error: float) -> float:
    """Expected count of threshold mistakes across all directed pairs.

    Sum of an estimation term shrinking in n and an approximation term
    proportional to ``approx_error``; both blow up as the margin between
    strong and weak edges closes.
    """
    _common_checks(b)
    _require(0.0 < b.eta < 1.0, "eta must lie in (0, 1)")
    _require(b.eigen_floor > 0, "eigenvalue floor must be positive")
    _require(approx_error >= 0.0, "approximation error must be nonnegative")
    _require(b.strong_min > b.weak_max,
             f"strong floor {b.strong_min} <= weak ceiling {b.weak_max}")
    margin_sq = (b.strong_min - b.weak_max) ** 2
    min_w = min(b.eta ** 2, (1.0 - b.eta) ** 2)
    term1 = (
        b.lipschitz ** 2 * b.pseudo_dim * b.p ** 2
        * math.log(b.n * b.lipschitz * b.p)
        * math.log(1.0 / b.delta)
    ) / (b.strong_convexity ** 2 * min_w * b.eigen_floor * margin_sq * b.n)
    term2 = (b.lipschitz * approx_error) / (
        b.strong_convexity * b.eigen_floor * min_w * margin_sq
    )
    return term1 + term2
