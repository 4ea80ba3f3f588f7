import math
import re

import numpy as np
import pytest

from cdgm import theory
from cdgm.errors import DomainError

# reference values evaluated once with 50-digit arithmetic and frozen
XI_LIP_A05 = 34.64288299156163563546
XI_SMOOTH_A05 = 10.62696747352527324512
GEN_TERM_A05 = 16.78030914817882532112
EDGE_BOUND_REF = 1686.030914817882532112


def inputs(**kw):
    base = dict(n=10 ** 6, p=10, q=2, lipschitz=4.0, strong_convexity=0.5,
                smoothness=2.0, delta=0.05, pseudo_dim=100.0)
    base.update(kw)
    return theory.BoundInputs(**base)


def test_rate_frozen_constants():
    b = inputs()
    assert theory.excess_risk_rate(b, "lipschitz") == pytest.approx(XI_LIP_A05, rel=1e-12)
    assert theory.excess_risk_rate(b, "smooth") == pytest.approx(XI_SMOOTH_A05, rel=1e-12)


def test_rate_vanishes_at_unit_strong_convexity():
    # log(1/alpha) = 0 zeroes the base expression
    assert theory.excess_risk_rate(inputs(strong_convexity=1.0)) == 0.0


def test_rate_strictly_decreasing_in_n():
    vals = [theory.excess_risk_rate(inputs(n=n)) for n in (10**4, 10**5, 10**6, 10**7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rate_exponent_half_when_smoothness_equals_q():
    b = inputs(smoothness=2.0, q=2)
    base = (b.lipschitz * b.smoothness ** 4 * b.q ** 6 * b.p ** 2
            * math.log(b.n * b.lipschitz * b.p) ** 2 * math.log(b.p)
            * math.log(1 / b.delta) * math.log(1 / b.strong_convexity)
            ) / (b.strong_convexity * b.n)
    assert theory.excess_risk_rate(b) == pytest.approx(math.sqrt(base), rel=1e-12)


def test_rate_smooth_mode_below_lipschitz_mode_when_base_small():
    # pick inputs with base < 1: exponent m/(2m+q) < m/(m+q) implies a
    # larger value for a base below one, so compare on base > 1 region too
    b = inputs(n=10 ** 12)
    lip = theory.excess_risk_rate(b, "lipschitz")
    smooth = theory.excess_risk_rate(b, "smooth")
    assert lip < 1.0
    assert smooth >= lip


def test_rate_rejects_alpha_above_one():
    with pytest.raises(DomainError):
        theory.excess_risk_rate(inputs(strong_convexity=2.0))
    with pytest.raises(DomainError):
        theory.excess_risk_rate(inputs(), mode="bogus")


def test_network_size_examples():
    depth, width = theory.network_size_for_rate(1.0, 1, 0.5)
    assert width == 11  # ceil(2e * 2 * 1)
    assert depth == math.ceil(0.5 ** -0.5)
    with pytest.raises(DomainError):
        theory.network_size_for_rate(1.0, 1, 1.5)
    with pytest.raises(DomainError):
        theory.network_size_for_rate(1.0, 1, 0.0)


def test_binom_matches_scipy_bit_for_bit():
    from scipy.special import binom

    ms = [1e-7, 0.01, 0.5, 1.0, 1.5, 2.0, 3.0, math.pi, 7.0, 12.0, 19.0, 20.0, 33.0, 1e3,
          1e6, 1e12]
    ms += list(np.random.default_rng(2).uniform(0.0, 60.0, 200))
    for m in ms:
        for q in range(1, 20):
            assert theory._binom(m + q, q) == binom(m + q, q), (m, q)


def test_network_size_rejects_q_from_20():
    # the width passes 2**53 at q = 19 already; from q = 20 scipy's binom
    # leaves the product formula that theory._binom reproduces
    assert theory.network_size_for_rate(1.0, 19, 0.5)[1] > 2 ** 53
    with pytest.raises(DomainError):
        theory.network_size_for_rate(1.0, 20, 0.5)


def test_network_depth_monotone_in_rate():
    depths = [theory.network_size_for_rate(2.0, 3, r)[0] for r in (0.9, 0.1, 0.001)]
    assert depths[0] <= depths[1] <= depths[2]
    # approaching the unit rate needs a single layer
    assert theory.network_size_for_rate(2.0, 3, 1.0 - 1e-12)[0] == 1


def test_generalization_term_frozen_constant():
    assert theory.generalization_error_term(inputs()) == pytest.approx(GEN_TERM_A05, rel=1e-12)


def test_generalization_term_scalings():
    b = inputs()
    base = theory.generalization_error_term(b)
    assert theory.generalization_error_term(inputs(pseudo_dim=200.0)) == pytest.approx(2 * base, rel=1e-12)
    doubled_p = theory.generalization_error_term(inputs(p=20))
    expect_ratio = 4.0 * math.log(b.n * b.lipschitz * 20) / math.log(b.n * b.lipschitz * 10)
    assert doubled_p / base == pytest.approx(expect_ratio, rel=1e-12)


def test_generalization_term_increasing_in_p_grid():
    vals = [theory.generalization_error_term(inputs(p=p)) for p in (5, 10, 20, 40, 80)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_edge_bound_frozen_constant():
    b = inputs(strong_convexity=1.0, eta=0.25, eigen_floor=0.5,
               weak_max=0.1, strong_min=0.5)
    assert theory.edge_recovery_bound(b, 0.01) == pytest.approx(EDGE_BOUND_REF, rel=1e-12)


def test_edge_bound_zero_approximation_error_drops_second_term():
    b = inputs(strong_convexity=1.0, eta=0.25, eigen_floor=0.5,
               weak_max=0.1, strong_min=0.5)
    with_term = theory.edge_recovery_bound(b, 0.01)
    without = theory.edge_recovery_bound(b, 0.0)
    second = (b.lipschitz * 0.01) / (
        b.strong_convexity * b.eigen_floor * min(b.eta ** 2, 0.75 ** 2) * 0.16)
    assert with_term - without == pytest.approx(second, rel=1e-12)


def test_edge_bound_eta_weighting():
    lo = theory.edge_recovery_bound(inputs(eta=0.5, weak_max=0.1, strong_min=0.5), 0.0)
    hi = theory.edge_recovery_bound(inputs(eta=0.1, weak_max=0.1, strong_min=0.5), 0.0)
    assert hi / lo == pytest.approx(0.25 / (0.1 ** 2), rel=1e-12)


def test_edge_bound_diverges_as_margin_shrinks():
    margins = (0.4, 0.2, 0.1, 0.05, 0.01)
    vals = [theory.edge_recovery_bound(
        inputs(weak_max=0.1, strong_min=0.1 + m), 0.01) for m in margins]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_edge_bound_margin_violation():
    with pytest.raises(DomainError, match="strong floor 0.4 <= weak ceiling 0.5"):
        theory.edge_recovery_bound(inputs(weak_max=0.5, strong_min=0.4), 0.0)


def test_input_validation():
    with pytest.raises(DomainError):
        theory.generalization_error_term(inputs(delta=1.5))
    with pytest.raises(DomainError):
        theory.excess_risk_rate(inputs(n=-5))
    with pytest.raises(DomainError):
        theory.edge_recovery_bound(inputs(eta=0.0, strong_min=0.5, weak_max=0.1), 0.0)


@pytest.mark.parametrize("call,message", [
    (lambda: theory.excess_risk_rate(inputs(strong_convexity=math.inf)),
     "strong_convexity must be finite"),
    (lambda: theory.edge_recovery_bound(inputs(eta=math.nan), 0.0), "eta must be finite"),
    (lambda: theory.excess_risk_rate(inputs(q=10 ** 400)), "q must be finite"),
    (lambda: theory.excess_risk_rate(inputs(p=10 ** 200)), "the rate overflows a float at"),
    (lambda: theory.generalization_error_term(inputs(pseudo_dim=1e308, p=10 ** 100)),
     "the generalization term overflows a float at"),
    (lambda: theory.network_size_for_rate(1e20, 19, 0.5), "the network size at m = 1e+20")])
def test_non_finite_input_or_result_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
