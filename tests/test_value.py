"""Tests for the closed-form layer: sensing arithmetic, value bound, degradation.

Reference numbers in this file were produced by independent recomputation
(explicit shrink loops, geometric sums evaluated longhand) before being
frozen here; the tests then pin the library against them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intermittent_pursuit import (
    CASE_TAGS,
    DegradationReport,
    PayoffSpec,
    ROUND_TOL,
    RegionNotCoveredError,
    ValueBound,
    continuous_sensing_payoff,
    degradation_report,
    holds_at_fix,
    matching_sense_count,
    reach_factor,
    sense_count_arrival,
    sense_count_self_triggered,
    sensing_delay,
    self_triggered_contraction,
    theta_stream,
    travel_budget,
    trial_rng,
    trigger_coefficient,
    value_bound,
)
from conftest import textbook_contraction

HINGE = PayoffSpec(kind="hinge", r_cap=0.1)
QUAD = PayoffSpec(kind="quadratic-above-capture", r_cap=0.1)


# ---------------------------------------------------------------------------
# sensing-scheme arithmetic
# ---------------------------------------------------------------------------


def test_trigger_coefficient_frozen_value():
    assert trigger_coefficient(0.7) == pytest.approx(0.505000500100025, abs=1e-15)


def test_contraction_frozen_values():
    assert self_triggered_contraction(0.5) == pytest.approx(0.6830127018922194, abs=1e-15)
    assert self_triggered_contraction(0.7) == pytest.approx(0.8484998499699925, abs=1e-15)
    # removable singularity of the raw form; the simplified form is smooth here
    assert self_triggered_contraction(1.0 / math.sqrt(2.0)) == pytest.approx(
        0.8535533905932737, abs=1e-15
    )


def test_contraction_bracket_and_monotone():
    """nu < h(nu) < 1 and h increasing, over a fine sweep."""
    nus = np.linspace(0.001, 0.999, 999)
    values = [self_triggered_contraction(float(nu)) for nu in nus]
    for nu, h in zip(nus, values):
        assert nu < h < 1.0, f"bracket failed at nu={nu}: h={h}"
    diffs = np.diff(values)
    assert np.all(diffs > 0), "contraction factor must increase with evader speed"
    print(f"contraction bracket OK on {len(nus)} points, min gap to 1: {1 - max(values):.3e}")


def test_trigger_coefficient_decreasing():
    nus = np.linspace(0.01, 0.99, 99)
    values = [trigger_coefficient(float(nu)) for nu in nus]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_raw_form_agrees_away_from_singularity():
    """Simplified and literal contraction forms agree to 1e-10 off nu=1/sqrt(2)."""
    singular = 1.0 / math.sqrt(2.0)
    checked = 0
    worst = 0.0
    for nu in np.linspace(0.01, 0.99, 981):
        nu = float(nu)
        if abs(nu - singular) <= 1e-3:
            continue
        gap = abs(self_triggered_contraction(nu) - textbook_contraction(nu))
        worst = max(worst, gap)
        checked += 1
    print(f"raw-vs-simplified: {checked} points, worst gap {worst:.3e}")
    assert worst < 1e-10

    # at the singularity itself only the simplified form is usable; it must be
    # finite and consistent with its neighbors
    h_mid = self_triggered_contraction(singular)
    assert math.isfinite(h_mid)
    assert self_triggered_contraction(singular - 1e-6) < h_mid < self_triggered_contraction(
        singular + 1e-6
    )


def _count_by_shrinking(rho0: float, r_cap: float, factor: float) -> int:
    """Independent ceil-style count: shrinks needed to bring rho0 inside r_cap."""
    count = 0
    rho = rho0
    while rho > r_cap * (1 + 1e-12) and count < 10_000:
        rho *= factor
        count += 1
    return count


def test_sense_counts_frozen_values():
    cases_self = {0.7: 24, 0.9: 118, 0.95: 315}
    cases_arrival = {0.7: 10, 0.9: 37}
    for nu, expected in cases_self.items():
        got = sense_count_self_triggered(5.0, 0.1, nu)
        print(f"self-triggered count nu={nu}: {got}")
        assert got == expected
    for nu, expected in cases_arrival.items():
        got = sense_count_arrival(5.0, 0.1, nu)
        print(f"arrival count nu={nu}: {got}")
        assert got == expected


def test_sense_counts_match_shrink_loop():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        nu = float(rng.uniform(0.05, 0.95))
        r_cap = float(rng.uniform(0.02, 0.5))
        rho0 = float(r_cap * rng.uniform(1.0, 80.0))
        h = self_triggered_contraction(nu)
        expected_self = _count_by_shrinking(rho0, r_cap, h)
        assert sense_count_self_triggered(rho0, r_cap, nu) == expected_self
        # arrival semantics: largest k with nu^k * rho0 >= r_cap
        k = 0
        while nu ** (k + 1) * rho0 > r_cap * (1 + 1e-12):
            k += 1
        assert sense_count_arrival(rho0, r_cap, nu) == k


def test_sense_count_edges():
    # exact powers must not flip the integer by float noise
    nu = 0.7
    assert sense_count_arrival(1.0, nu**3, nu) == 3
    h = self_triggered_contraction(nu)
    assert sense_count_self_triggered(1.0, h**4, nu) == 4
    # already captured at the start
    assert sense_count_arrival(0.1, 0.1, nu) == 0
    assert sense_count_self_triggered(0.1, 0.1, nu) == 0
    with pytest.raises(ValueError):
        sense_count_arrival(0.05, 0.1, nu)


def test_travel_budget_frozen_and_invariants():
    sensings, max_travel = travel_budget(5.0, 0.1, 0.7)
    assert sensings == 10
    assert max_travel == pytest.approx(16.43597854665, abs=1e-9)

    rng = np.random.default_rng(7)
    for _ in range(200):
        nu = float(rng.uniform(0.05, 0.95))
        r_cap = float(rng.uniform(0.02, 0.5))
        rho0 = float(r_cap * rng.uniform(1.0, 60.0))
        s, travel = travel_budget(rho0, r_cap, nu)
        assert s == sense_count_arrival(rho0, r_cap, nu)
        assert travel >= rho0 - 1e-12
        assert travel <= rho0 / (1.0 - nu) + 1e-9
        # capture-time bound dominates the whole journey
        assert travel <= (rho0 - r_cap) / (1.0 - nu) + rho0 + 1e-9

    # degenerate start inside the capture disc: no dashes, trivial budget
    s, travel = travel_budget(0.05, 0.1, 0.7)
    assert s == 0 and travel == pytest.approx(0.05)


def test_reach_factor_is_geometric_sum():
    for nu in (0.3, 0.7, 0.9):
        for ell in range(6):
            expected = sum(nu**k for k in range(ell + 1))
            assert reach_factor(nu, ell) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        reach_factor(0.7, -1)


def test_sensing_delay_spreads_the_time_over_the_reach():
    # the hold before each fix is tau / reach_factor(nu, ell)
    for nu in (0.3, 0.7, 0.9):
        for ell in range(6):
            assert sensing_delay(nu, ell, 5.0) * reach_factor(nu, ell) == pytest.approx(5.0)
    with pytest.raises(ValueError, match="ell"):
        sensing_delay(0.7, -1, 5.0)
    with pytest.raises(ValueError, match="nu"):
        sensing_delay(1.0, 2, 5.0)


@pytest.mark.parametrize("call, match", [
    (lambda: reach_factor(0.7, True), "ell must be a nonnegative integer, got True"),
    (lambda: sensing_delay(0.7, True, 5.0), "ell must be a nonnegative integer, got True"),
    (lambda: holds_at_fix(1.0, 5.0, True, 0.7, 0.1), "ell must be a nonnegative integer"),
    (lambda: value_bound(1.0, 5.0, True, HINGE, 0.7), "ell must be a nonnegative integer"),
    (lambda: trial_rng(True, 0), r"seed must be an integer in \[0, 2\*\*64\), got True"),
    (lambda: trial_rng(0, True), "trial index must be a nonnegative integer, got True"),
    (lambda: theta_stream(True, 0, 4), "seed must be an integer"),
    (lambda: theta_stream(0, True, 4), "trial index must be a nonnegative integer"),
], ids=["reach_factor", "sensing_delay", "holds_at_fix", "value_bound", "trial_rng_seed",
        "trial_rng_trial", "theta_stream_seed", "theta_stream_trial"])
def test_bool_is_not_an_integer_budget_or_seed(call, match):
    # as GameConfig rejects n=True and seed=True
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# value bound
# ---------------------------------------------------------------------------


class TestStage0Bound:
    def test_capture_case(self):
        b = value_bound(0.1, 1.0, 0, HINGE, 0.7)
        assert b == ValueBound(0.0, "stage0_case1", True)

    def test_chase_case(self):
        # tau < rho: best effort closes at rate (1 - nu)
        b = value_bound(2.0, 1.0, 0, HINGE, 0.7)
        assert b.case_tag == "stage0_case3"
        assert b.value == pytest.approx(HINGE.evaluate(0.7 * 1.0 + 2.0 - 1.0), abs=1e-15)
        assert b.is_tight

    def test_stop_case_frozen_example(self):
        # rho=1, tau=2: evader banks nu*tau of distance from the stop point
        b = value_bound(1.0, 2.0, 0, HINGE, 0.7)
        assert b.case_tag == "stage0_case2a"
        assert b.value == pytest.approx(1.3, abs=1e-12)
        assert b.is_tight

    def test_slack_case_not_tight(self):
        nu = 0.7
        rho = 0.16  # nu*rho = 0.112 in (0.1, 0.1*sqrt(1.49) = 0.12207]
        b = value_bound(rho, 1.0, 0, HINGE, nu)
        assert b.case_tag == "stage0_case2b"
        assert not b.is_tight


class TestValueBound:
    def test_frozen_wait_region_point(self):
        b = value_bound(1.0, 5.0, 2, HINGE, 0.7)
        assert b.value == pytest.approx(0.6831050228310501, abs=1e-15)
        assert b.case_tag == "wait_region"
        assert b.is_tight

    def test_zero_budget_delegates(self):
        # rho below r_cap keeps the stage-0 tag when the budget is exhausted
        assert value_bound(0.05, 1.0, 0, HINGE, 0.7).case_tag == "stage0_case1"
        # but reports plain capture when sensings remain
        assert value_bound(0.05, 1.0, 3, HINGE, 0.7).case_tag == "capture_region"

    def test_capture_region(self):
        nu = 0.7
        rho = 1.0
        # nu^(ell+1) * rho <= r_cap requires ell >= 6 at these numbers
        assert 0.7**7 < 0.1 < 0.7**6
        b = value_bound(rho, 50.0, 6, HINGE, nu)
        assert b == ValueBound(0.0, "capture_region", True)
        assert value_bound(rho, 50.0, 5, HINGE, nu).value > 0.0

    def test_time_limited_value(self):
        nu = 0.7
        b = value_bound(2.0, 1.0, 3, HINGE, nu)
        assert b.case_tag == "time_limited"
        assert b.value == pytest.approx(HINGE.evaluate(nu * 1.0 + 2.0 - 1.0), abs=1e-15)

    def test_branch_agreement_on_reach_boundary(self):
        """Both case formulas give phi(nu^(ell+1) * rho) at tau = reach * rho."""
        for nu in (0.4, 0.7, 0.85):
            for ell in range(1, 5):
                rho = 1.3
                tau = reach_factor(nu, ell) * rho
                b = value_bound(rho, tau, ell, HINGE, nu)
                shrunk = nu ** (ell + 1) * rho
                expected = HINGE.evaluate(shrunk)
                # on the boundary the capture case wins once the shrunk
                # separation is already inside the capture disc
                if shrunk <= HINGE.r_cap:
                    assert b.case_tag == "capture_region"
                else:
                    assert b.case_tag == "time_limited"
                assert b.value == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_time_limited_distance_clamped_above_reach_boundary(self):
        """In the ROUND_TOL band above tau = reach * rho, nu*tau + rho - tau rounds below 0.

        A valid state with a tiny capture radius must not raise there: the
        chase distance is clamped at 0, in the scalar and the array path.
        """
        nu, ell, rho = 0.05, 8, 0.2
        phi = PayoffSpec("hinge", 1e-13)
        tau = reach_factor(nu, ell) * rho + 0.9e-12
        b = value_bound(rho, tau, ell, phi, nu)
        assert b.case_tag == "time_limited"
        assert abs(b.value - phi.evaluate(nu ** (ell + 1) * rho)) <= ROUND_TOL
        arrays = value_bound(np.array([rho, rho]), np.array([tau, tau]), ell, phi, nu)
        for i in range(2):
            assert (arrays.value[i], arrays.case_tag[i], arrays.is_tight[i]) == (
                b.value, b.case_tag, b.is_tight)

    def test_boundary_continuity_sweep(self):
        """Value is continuous across the reach boundary: eps-step gap is O(eps)."""
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(200):
            nu = float(rng.uniform(0.2, 0.9))
            ell = int(rng.integers(1, 6))
            rho = float(rng.uniform(0.3, 3.0))
            tau = reach_factor(nu, ell) * rho
            eps = 1e-7 * max(1.0, tau)
            lo = value_bound(rho, tau - eps, ell, HINGE, nu).value
            hi = value_bound(rho, tau + eps, ell, HINGE, nu).value
            worst = max(worst, abs(hi - lo))
        print(f"reach-boundary continuity: worst jump {worst:.3e}")
        assert worst < 1e-5

    def test_budget_monotonicity_sweep(self):
        """More sensings can never hurt the pursuer: value nonincreasing in ell."""
        rng = np.random.default_rng(4)
        for _ in range(400):
            nu = float(rng.uniform(0.1, 0.95))
            rho = float(rng.uniform(0.0, 4.0))
            tau = float(rng.uniform(0.0, 8.0))
            values = [value_bound(rho, tau, ell, HINGE, nu).value for ell in range(6)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12, (nu, rho, tau, values)

    def test_wait_value_independent_of_rho(self):
        # inside the wait region the bound depends only on tau and the budget
        nu, ell, tau = 0.7, 2, 6.0
        vals = {value_bound(rho, tau, ell, HINGE, nu).value for rho in (0.5, 1.0, 2.0)}
        assert len(vals) == 1

    def test_slack_band_flagging(self):
        nu, r_cap = 0.7, 0.1
        band_hi = math.sqrt(1 + nu * nu) * r_cap
        for ell in range(1, 4):
            inside = 0.5 * (r_cap + band_hi)
            tau = reach_factor(nu, ell) * inside + 1.0
            assert not value_bound(inside, tau, ell, HINGE, nu).is_tight
            # just outside the band in rho, tightness returns
            assert value_bound(band_hi * 1.01, reach_factor(nu, ell) * band_hi * 1.01 + 1.0,
                               ell, HINGE, nu).is_tight
            # short on time, the slack predicate is off
            assert value_bound(inside, 0.01, ell, HINGE, nu).is_tight

    def test_validation(self):
        with pytest.raises(ValueError):
            value_bound(1.0, 1.0, -1, HINGE, 0.7)
        with pytest.raises(ValueError):
            value_bound(-1.0, 1.0, 1, HINGE, 0.7)
        with pytest.raises(ValueError):
            value_bound(1.0, 1.0, 1, HINGE, 1.0)
        with pytest.raises(ValueError):
            ValueBound(1.0, "no_such_tag", True)

    def test_case_tags_registry(self):
        assert CASE_TAGS == (
            "capture_region",
            "time_limited",
            "wait_region",
            "stage0_case1",
            "stage0_case2a",
            "stage0_case2b",
            "stage0_case3",
        )

    def test_array_validation(self):
        """An array query checks every element; a bad one names the first offender."""
        with pytest.raises(ValueError, match="rho must be nonnegative and finite, got nan"):
            value_bound(np.array([1.0, math.nan]), 1.0, 1, HINGE, 0.7)
        with pytest.raises(ValueError, match="tau must be nonnegative and finite, got -1.0"):
            value_bound(np.array([[1.0], [2.0]]), np.array([2.0, -1.0, math.inf]), 0, HINGE, 0.7)
        with pytest.raises(ValueError, match="unknown case tag 'no_such_tag'"):
            ValueBound(np.array([1.0, 2.0]), np.array(["wait_region", "no_such_tag"], dtype=object),
                       np.array([True, True]))
        with pytest.raises(ValueError, match="bound value must be nonnegative and finite, got inf"):
            ValueBound(np.array([1.0, math.inf]), np.array(["wait_region"] * 2), np.array([True] * 2))


# ---------------------------------------------------------------------------
# value bound properties: one case split for scalars and arrays
# ---------------------------------------------------------------------------


def _longhand_bound(rho, tau, ell, phi, nu):
    """The scalar case split as it was written before arrays: (value, tag, tight)."""
    r_cap = phi.r_cap
    band_hi = math.sqrt(1.0 + nu * nu) * r_cap
    if ell == 0:
        if tau >= rho and nu * rho <= r_cap:
            return 0.0, "stage0_case1", True
        value = phi.evaluate(nu * tau + max(rho - tau, 0.0))
        if tau < rho:
            return value, "stage0_case3", True
        if nu * rho > band_hi:
            return value, "stage0_case2a", True
        return value, "stage0_case2b", False
    reach_per_rho = (1.0 - nu ** (ell + 1)) / (1.0 - nu)
    tight = not (tau >= reach_per_rho * rho and r_cap <= rho <= band_hi)
    if rho <= r_cap:
        return 0.0, "capture_region", tight
    shrink = nu ** (ell + 1)
    reach = reach_per_rho * rho
    if tau >= reach and shrink * rho <= r_cap:
        return 0.0, "capture_region", tight
    if tau <= reach + 1e-12 * max(1.0, tau):
        return phi.evaluate(nu * tau + rho - tau), "time_limited", tight
    return phi.evaluate((1.0 - nu) / (1.0 - shrink) * shrink * tau), "wait_region", tight


@st.composite
def _bound_grids(draw):
    """A game (nu, phi, ell) and a (rho, tau) grid that crosses every case boundary.

    Beside drawn points, the grid holds rho = r_cap, rho = 0 and -0.0,
    nu*rho = sqrt(1+nu^2)*r_cap, nu^(ell+1)*rho = r_cap, and for each rho
    tau = rho and tau = reach_factor*rho, each also nudged by an ulp-scale step.
    """
    nu = draw(st.floats(0.05, 0.95))
    r_cap = draw(st.floats(0.01, 1.0))
    phi = PayoffSpec(draw(st.sampled_from(("hinge", "quadratic-above-capture"))), r_cap)
    ell = draw(st.integers(0, 8))
    reach = reach_factor(nu, ell)
    rhos = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    rhos += [r_cap, 0.0, -0.0, math.sqrt(1.0 + nu * nu) * r_cap / nu, r_cap / nu ** (ell + 1)]
    taus = draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4)) + [0.0, -0.0]
    for rho in rhos:
        for tau in (rho, reach * rho):
            taus += [tau, tau * (1.0 + 1e-13), tau * (1.0 - 1e-13)]
    return nu, phi, ell, rhos, taus


@settings(max_examples=100)
@given(_bound_grids())
def test_array_scalar_and_longhand_bounds_agree_property(grid):
    """The array call, each scalar call and the longhand split agree with ==."""
    nu, phi, ell, rhos, taus = grid
    arrays = value_bound(np.array(rhos)[:, None], np.array(taus)[None, :], ell, phi, nu)
    assert arrays.value.shape == arrays.case_tag.shape == arrays.is_tight.shape == (
        len(rhos), len(taus))
    for i, rho in enumerate(rhos):
        for j, tau in enumerate(taus):
            scalar = value_bound(rho, tau, ell, phi, nu)
            assert type(scalar.value) is float
            assert type(scalar.case_tag) is str
            assert type(scalar.is_tight) is bool
            expected = _longhand_bound(rho, tau, ell, phi, nu)
            assert (scalar.value, scalar.case_tag, scalar.is_tight) == expected, (rho, tau)
            assert (arrays.value[i, j], arrays.case_tag[i, j], arrays.is_tight[i, j]) == expected


@settings(max_examples=60)
@given(_bound_grids())
def test_bound_nonincreasing_in_budget_and_zero_on_capture_property(grid):
    """One more sensing never raises the bound; a capture tag always means 0."""
    nu, phi, ell, rhos, taus = grid
    rho, tau = np.array(rhos)[:, None], np.array(taus)[None, :]
    bounds = [value_bound(rho, tau, n, phi, nu) for n in range(ell + 2)]
    # Rounding is relative to the value, or to rho + tau where nu*tau + rho - tau cancels.
    scale = np.maximum(1.0, rho + tau)
    for fewer, more in zip(bounds, bounds[1:]):
        assert np.all(more.value <= fewer.value + 1e-12 * np.maximum(scale, fewer.value))
    for bound in bounds:
        captured = np.isin(bound.case_tag, ("capture_region", "stage0_case1"))
        assert np.all(bound.value[captured] == 0.0)
    for bound in bounds[1:]:
        assert np.all(bound.case_tag[np.broadcast_to(rho <= phi.r_cap, bound.value.shape)]
                      == "capture_region")


@settings(max_examples=60)
@given(nu=st.floats(0.05, 0.95), r_cap=st.floats(0.01, 1.0), ell=st.integers(1, 8),
       kind=st.sampled_from(("hinge", "quadratic-above-capture")),
       rhos=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
def test_bound_continuous_across_reach_boundary_property(nu, r_cap, ell, kind, rhos):
    """Stepping eps across tau = reach_factor*rho moves the bound by O(eps)."""
    phi = PayoffSpec(kind, r_cap)
    rho = np.array(rhos)
    edge = reach_factor(nu, ell) * rho
    eps = 1e-9 * np.maximum(1.0, edge)
    below = value_bound(rho, np.maximum(edge - eps, 0.0), ell, phi, nu).value
    above = value_bound(rho, edge + eps, ell, phi, nu).value
    # Both branches move by at most 1 per unit tau; the square at most 2*(rho + tau) times that.
    lipschitz = 1.0 if kind == "hinge" else 2.0 * (rho + edge + eps)
    assert np.all(np.abs(above - below) <= 2.0 * eps * lipschitz + 1e-15)


# ---------------------------------------------------------------------------
# degradation metrics
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_matching_count_frozen(self):
        assert matching_sense_count(5.0, 14.7, 0.7, 0.1) == 5

    def test_matching_count_long_horizon(self):
        # with time to spare the mat count collapses to the arrival count
        nu, rho0, r_cap = 0.7, 5.0, 0.1
        bound = (rho0 - r_cap) / (1.0 - nu)
        assert matching_sense_count(rho0, bound * 2, nu, r_cap) == sense_count_arrival(
            rho0, r_cap, nu
        )

    def test_matching_count_precondition(self):
        # initial state must clear the slack band
        with pytest.raises(RegionNotCoveredError):
            matching_sense_count(0.15, 5.0, 0.7, 0.1)

    def test_continuous_payoff(self):
        assert continuous_sensing_payoff(5.0, 14.7, 0.7, HINGE) == pytest.approx(0.49, rel=1e-12)
        # saturates at zero once the chase would finish early
        assert continuous_sensing_payoff(1.0, 100.0, 0.7, HINGE) == 0.0

    def test_report_frozen_values(self):
        rep = degradation_report(5.0, 14.7, 0.7, HINGE)
        assert rep.n_star == 5
        assert rep.continuous_payoff == pytest.approx(0.49, rel=1e-12)
        assert rep.betas[3] == pytest.approx(1.361686751825062, rel=1e-12)
        assert rep.deltas[3] == pytest.approx(0.8033951835767862, rel=1e-12)
        print("deltas:", [round(d, 6) for d in rep.deltas])
        print("betas: ", [round(b, 6) for b in rep.betas])

    def test_betas_strictly_decreasing_and_sign_pattern(self):
        for nu in (0.5, 0.6, 0.7, 0.8):
            rho0, r_cap = 5.0, 0.1
            t_f = 0.9 * (rho0 - r_cap) / (1.0 - nu)
            rep = degradation_report(rho0, t_f, nu, HINGE)
            assert all(a > b for a, b in zip(rep.betas, rep.betas[1:]))
            # positive while the bound still exceeds continuous sensing
            assert all(b >= 0.0 for b in rep.betas[: rep.n_star])
            assert rep.betas[rep.n_star] < 0.0
            assert all(d >= 0.0 for d in rep.deltas)

    def test_floor_holds_for_both_payoffs(self):
        for phi in (HINGE, QUAD):
            for nu in (0.5, 0.7, 0.8):
                rho0 = 5.0
                t_f = 0.9 * (rho0 - phi.r_cap) / (1.0 - nu)
                rep = degradation_report(rho0, t_f, nu, phi)
                for n in range(rep.n_star):
                    floor = rep.betas[n] * rep.continuous_payoff
                    assert rep.deltas[n] >= floor - 1e-9 * max(1.0, abs(floor))

    def test_delta_vanishes_with_time_to_spare(self):
        nu, rho0, r_cap = 0.7, 5.0, 0.1
        bound = (rho0 - r_cap) / (1.0 - nu)
        rep = degradation_report(rho0, bound * 1.5, nu, HINGE)
        assert rep.deltas[rep.n_star] == pytest.approx(0.0, abs=1e-12)
        assert rep.continuous_payoff == 0.0

    def test_betas_empty_when_continuous_chase_closes_fully(self):
        nu, rho0 = 0.7, 5.0
        t_f = rho0 / (1.0 - nu)  # gap hits exactly zero
        rep = degradation_report(rho0, t_f, nu, HINGE)
        assert rep.betas == ()
        assert rep.continuous_payoff == 0.0

    def test_report_validation(self):
        with pytest.raises(ValueError):
            DegradationReport(deltas=(0.1, 0.0), betas=(1.0,), continuous_payoff=0.5)
        with pytest.raises(ValueError):
            # delta far below its floor
            DegradationReport(deltas=(0.1, 0.0), betas=(3.0, -0.5), continuous_payoff=0.5)
