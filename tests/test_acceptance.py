"""Acceptance gate: the package's top-level guarantees, one verdict line each.

Every test here prints exactly one line of the form

    ACCEPTANCE <k> <label>: PASS|FAIL

and then asserts.  Checks recompute every reference quantity independently
(explicit loops and longhand formulas) rather than trusting the library
function under test.

Criterion 6 checks the floor on the dodging evader's expected final
distance that holds, ``E[g] >= hypot(rho - a1, nu*tau)``, and that it is
sharp.  The printed floor ``sqrt((rho - a1)^2 + nu^2 tau^2 + a2^2)`` is the
root-mean-square of the two branch distances, which a mean never exceeds;
the test only prints how often that form breaks (``verify jensen`` reports
it and exits 1).
"""

import math
import time

import numpy as np

from intermittent_pursuit import (
    ArrivalSensingPursuer,
    ContinuousPursuer,
    GameConfig,
    PayoffSpec,
    RadialEvader,
    ScriptedEvader,
    Vec2,
    WaitingPursuer,
    build_evader,
    capture_time_bound_check,
    default_evader_config,
    degradation_report,
    evader_guarantee_check,
    exact_expected_payoff,
    jensen_expected_distance,
    oracle_agreement_check,
    pursuer_guarantee_check,
    self_triggered_contraction,
    sense_count_arrival,
    sense_count_self_triggered,
    simulate,
    trial_rng,
    value_bound,
)
from intermittent_pursuit.verify import _endpoint_run
from conftest import textbook_contraction

HINGE = PayoffSpec("hinge", 0.1)


def _verdict(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} {label}: {status}")
    for line in failures[:10]:
        print(f"  - {line}")
    if len(failures) > 10:
        print(f"  - ... and {len(failures) - 10} more")
    assert not failures, f"criterion {number} ({label}): {len(failures)} violation(s)"


# ---------------------------------------------------------------------------
# 1. sensing-count comparison across evader speeds
# ---------------------------------------------------------------------------


def _independent_self_count(rho0, r_cap, nu):
    root = math.sqrt(1.0 - nu * nu)
    h = 1.0 - (1.0 - nu) * root / (nu + root)
    count, rho = 0, rho0
    while rho > r_cap * (1 + 1e-12):
        rho *= h
        count += 1
    return count


def _independent_arrival_count(rho0, r_cap, nu):
    k = 0
    while nu ** (k + 1) * rho0 > r_cap * (1 + 1e-12):
        k += 1
    return k


def test_criterion_1_sensing_count_comparison():
    started = time.perf_counter()
    failures = []
    rho0, r_cap = 5.0, 0.1
    nus = [round(0.05 * k, 2) for k in range(1, 20)]
    table = []
    for nu in nus:
        a = sense_count_self_triggered(rho0, r_cap, nu)
        p = sense_count_arrival(rho0, r_cap, nu)
        table.append((nu, a, p))
        if p > a:
            failures.append(f"nu={nu}: arrival count {p} exceeds self-triggered count {a}")
        if a != _independent_self_count(rho0, r_cap, nu):
            failures.append(f"nu={nu}: self-triggered count {a} != independent loop")
        if p != _independent_arrival_count(rho0, r_cap, nu):
            failures.append(f"nu={nu}: arrival count {p} != independent loop")
        if nu >= 0.7 and not a > 2 * p:
            failures.append(f"nu={nu}: ratio {a}/{p} not above 2")
    gaps = [(nu, a - p) for nu, a, p in table if nu >= 0.7]
    for (nu_a, g_a), (nu_b, g_b) in zip(gaps, gaps[1:]):
        # the gap wobbles by one unit at small nu, where both counts are a
        # handful; from nu = 0.7 on it must widen strictly
        if g_b <= g_a:
            failures.append(f"gap not increasing from nu={nu_a} ({g_a}) to nu={nu_b} ({g_b})")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    print("counts (nu, self-triggered, arrival):",
          " ".join(f"({nu:g},{a},{p})" for nu, a, p in table))
    _verdict(1, "sensing-count comparison", failures)


# ---------------------------------------------------------------------------
# 2. value-bound surface on a dense grid
# ---------------------------------------------------------------------------


def test_criterion_2_value_surface_grid():
    started = time.perf_counter()
    failures = []
    nu, r_cap = 0.7, 0.1
    band_hi = math.sqrt(1.0 + nu * nu) * r_cap
    rhos = np.linspace(0.0, 3.0, 300)
    taus = np.linspace(0.0, 6.0, 300)
    ells = range(6)
    reach = {ell: (1.0 - nu ** (ell + 1)) / (1.0 - nu) for ell in ells}

    values = {}
    loose_count = 0
    for ell in ells:
        grid = np.empty((len(rhos), len(taus)))
        for i, rho in enumerate(rhos):
            rho = float(rho)
            for j, tau in enumerate(taus):
                tau = float(tau)
                b = value_bound(rho, tau, ell, HINGE, nu)
                grid[i, j] = b.value
                # (a) at tau = 0 the bound must equal the raw payoff exactly
                if tau == 0.0 and b.value != HINGE.evaluate(rho):
                    failures.append(f"(rho={rho:.4g}, ell={ell}): v(rho,0) != phi(rho)")
                # (d) tightness flag must match the slack-band predicate,
                # recomputed here from scratch
                if ell == 0:
                    loose = tau >= rho and r_cap < nu * rho <= band_hi
                else:
                    loose = tau >= reach[ell] * rho and r_cap <= rho <= band_hi
                if b.is_tight != (not loose):
                    failures.append(
                        f"(rho={rho:.4g}, tau={tau:.4g}, ell={ell}): "
                        f"is_tight={b.is_tight}, predicate says loose={loose}"
                    )
                loose_count += loose
        values[ell] = grid

    # (b) continuity across the time-budget boundary tau = reach * rho
    for ell in ells:
        for rho in rhos[rhos > 0.05]:
            rho = float(rho)
            tau_b = reach[ell] * rho
            eps = 1e-12 * max(1.0, tau_b)
            lo = value_bound(rho, tau_b - eps, ell, HINGE, nu).value
            hi = value_bound(rho, tau_b + eps, ell, HINGE, nu).value
            if abs(hi - lo) > 1e-9:
                failures.append(
                    f"(rho={rho:.4g}, ell={ell}): jump {abs(hi - lo):.3g} at the boundary"
                )

    # (c) an extra sensing can never raise the bound, anywhere on the grid
    for ell in range(5):
        worst = float(np.max(values[ell + 1] - values[ell]))
        if worst > 1e-12:
            failures.append(f"ell {ell} -> {ell + 1}: bound grew by {worst:.3g}")

    if loose_count == 0:
        failures.append("no grid point landed in the slack band; grid too coarse")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    print(f"grid 300x300x6: {loose_count} slack-band points, {elapsed:.2f}s")
    _verdict(2, "value-bound surface", failures)


# ---------------------------------------------------------------------------
# 3. capture-time, sensing, and travel guarantees of the arrival scheme
# ---------------------------------------------------------------------------


def test_criterion_3_capture_time_guarantees():
    config = GameConfig(nu=0.7, r_cap=0.1, x_p0=Vec2(0.0, 0.0), x_e0=Vec2(5.0, 0.0),
                        t_f=20.0, n=0, phi=PayoffSpec("hinge", 0.1))
    report = capture_time_bound_check(config, trials=10_000, seed=0)
    failures = list(report.failures)
    print(f"{report.trials} adversarial trials, worst slack "
          f"{report.worst_violation:.3e}; {report.notes[0]}")
    _verdict(3, "capture-time and travel bounds", failures)


# ---------------------------------------------------------------------------
# 4. blind-dash endgame: radial flight is optimal, any deviation loses time
# ---------------------------------------------------------------------------


def test_criterion_4_blind_dash_optimality():
    failures = []
    rng = trial_rng(2026, 0)
    for i in range(100):
        nu = float(rng.uniform(0.3, 0.9))
        r_cap = float(rng.uniform(0.05, 0.3))
        # nu * rho0 strictly below r_cap, away from the boundary where a
        # deviator merely ties
        u = float(rng.uniform(0.1, 0.95))
        rho0 = r_cap * (1.0 + u * (1.0 / nu - 1.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        ux, uy = math.cos(angle), math.sin(angle)
        # horizon strictly below the start distance: the rotated start point
        # rounds |x_e0| by an ulp either way, and the fleeing phase must
        # trigger for every bearing; capture still lands inside the horizon
        config = GameConfig(
            nu=nu, r_cap=r_cap,
            x_p0=Vec2(0.0, 0.0), x_e0=Vec2(rho0 * ux, rho0 * uy),
            t_f=0.999 * rho0, n=0, phi=PayoffSpec("hinge", r_cap), seed=i,
        )
        t_star = (rho0 - r_cap) / (1.0 - nu)

        best = simulate(config, ArrivalSensingPursuer(), build_evader("equilibrium", config))
        if not best.outcome.captured:
            failures.append(f"config {i}: radial flight not captured")
            continue
        if abs(best.outcome.capture_time - t_star) > 1e-9 * max(1.0, t_star):
            failures.append(
                f"config {i}: radial capture {best.outcome.capture_time:.12g} "
                f"!= bound {t_star:.12g}"
            )
        if best.outcome.sensing_times:
            failures.append(f"config {i}: blind dash used {len(best.outcome.sensing_times)} fixes")

        # deviation: bearing rotated by at least 0.3 rad, any speed
        delta = float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.3, math.pi))
        speed = nu * float(rng.uniform(0.3, 1.0))
        c, s = math.cos(delta), math.sin(delta)
        velocity = Vec2(speed * (c * ux - s * uy), speed * (s * ux + c * uy))
        worse = simulate(config, ArrivalSensingPursuer(), ScriptedEvader([(config.t_f, velocity)]))
        if not worse.outcome.captured:
            failures.append(f"config {i}: deviating evader escaped the dash")
        elif not worse.outcome.capture_time < best.outcome.capture_time - 1e-9:
            failures.append(
                f"config {i}: deviation captured at {worse.outcome.capture_time:.12g}, "
                f"not strictly before {best.outcome.capture_time:.12g}"
            )
    _verdict(4, "blind-dash endgame optimality", failures)


# ---------------------------------------------------------------------------
# 5. the value bound is a guarantee for both players
# ---------------------------------------------------------------------------


def _guarantee_configs():
    """(rho0, t_f, n) cases at nu=0.7, r_cap=0.1 covering every case tag."""
    cases = [
        # wait region, ell >= 1
        (1.0, 5.0, 2), (1.0, 4.0, 1), (0.8, 6.0, 3), (1.5, 8.0, 2), (2.0, 9.0, 1),
        # time limited, ell >= 1
        (2.0, 1.0, 2), (3.0, 2.0, 1), (1.2, 1.5, 3), (4.0, 3.0, 2),
        # capture region, ell >= 1
        (1.0, 50.0, 6), (0.4, 20.0, 3), (0.05, 5.0, 2),
        # exhausted budget: corner, stop, slack, chase
        (0.13, 1.0, 0), (0.1, 2.0, 0),
        (1.0, 2.0, 0), (2.0, 6.0, 0), (0.5, 3.0, 0),
        (0.16, 2.0, 0), (0.145, 1.0, 0),
        (2.0, 1.0, 0), (3.0, 2.0, 0), (1.5, 1.0, 0),
    ]
    configs = []
    for rho0, t_f, n in cases:
        configs.append(GameConfig(
            nu=0.7, r_cap=0.1,
            x_p0=Vec2(0.0, 0.0), x_e0=Vec2(rho0, 0.0),
            t_f=t_f, n=n, phi=HINGE,
        ))
    return configs


def test_criterion_5_guarantees_for_both_players():
    started = time.perf_counter()
    failures = []

    configs = _guarantee_configs()
    tags = set()
    for k, config in enumerate(configs):
        bound = value_bound(config.initial_distance, config.t_f, config.n,
                            config.phi, config.nu)
        tags.add(bound.case_tag)
        report = pursuer_guarantee_check(config, trials=10_000, seed=k)
        if not report.passed:
            failures.append(f"pursuer config {k} ({bound.case_tag}): "
                            f"{report.failures[0]}")
    expected_tags = {
        "capture_region", "time_limited", "wait_region",
        "stage0_case1", "stage0_case2a", "stage0_case2b", "stage0_case3",
    }
    if tags != expected_tags:
        failures.append(f"configs cover {sorted(tags)}, missing "
                        f"{sorted(expected_tags - tags)}")

    evader_cfg = default_evader_config()
    report = evader_guarantee_check(evader_cfg)
    if not report.passed:
        failures.extend(f"evader sweep: {line}" for line in report.failures[:5])
    bound = value_bound(1.0, 2.0, 0, HINGE, 0.7)
    e_opt = exact_expected_payoff(evader_cfg, _endpoint_run(evader_cfg, 1.0, 0.0))
    if abs(e_opt - bound.value) > 1e-9:
        failures.append(f"straight run to the fix earns {e_opt:.12g}, "
                        f"bound is {bound.value:.12g}")

    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, budget 300s")
    print(f"{len(configs)} pursuer configs x 10000 evaders, case tags {sorted(tags)}; "
          f"evader sweep {report.trials} deviations; {elapsed:.1f}s")
    _verdict(5, "two-sided value guarantees", failures)


# ---------------------------------------------------------------------------
# 6. sharp floor on the dodger's expected final distance
# ---------------------------------------------------------------------------


def _jensen_points():
    """(rho, tau, nu, a1, a2): the 21x21 deviation grid, then 1000 random tuples.

    The random tuples are drawn in the same order and from the same ranges
    as ``jensen_random_sweep(1000, seed=0)``, so they are its tuples.
    """
    grid = [(1.0, 2.0, 0.7, float(a1), float(a2))
            for a1 in np.linspace(0.0, 1.0, 21)
            for a2 in np.linspace(-0.5, 0.5, 21)]
    rng = trial_rng(0, 1)
    sweep = []
    for _ in range(1000):
        rho = float(rng.uniform(0.2, 3.0))
        tau = float(rng.uniform(0.1, 4.0))
        nu = float(rng.uniform(0.05, 0.95))
        a1 = float(rng.uniform(0.0, min(rho, tau)))
        a2_cap = math.sqrt(max(tau * tau - a1 * a1, 0.0))
        a2 = float(rng.uniform(-a2_cap, a2_cap))
        sweep.append((rho, tau, nu, a1, a2))
    return {"grid": grid, "sweep": sweep}


def test_criterion_6_expected_distance_floor():
    failures = []
    rel = 1e-12
    for name, points in _jensen_points().items():
        worst = -math.inf
        rms_broken = 0
        for rho, tau, nu, a1, a2 in points:
            mean = jensen_expected_distance(rho, tau, nu, a1, a2)
            dx, dy = rho - a1, nu * tau
            where = (f"{name} (rho={rho:.6g}, tau={tau:.6g}, nu={nu:.6g}, "
                     f"a1={a1:.6g}, a2={a2:.6g})")
            # (a) the library mean is the mean of the two dodge branches
            branches = 0.5 * (math.sqrt(dx * dx + (dy - a2) ** 2)
                              + math.sqrt(dx * dx + (dy + a2) ** 2))
            if abs(mean - branches) > rel * branches:
                failures.append(f"{where}: E[g] {mean:.15g}, two-branch mean {branches:.15g}")
            # (b) the mean is at least the distance to the mean branch point
            floor = math.sqrt(dx * dx + dy * dy)
            worst = max(worst, floor - mean)
            if floor - mean > rel * floor:
                failures.append(f"{where}: E[g] {mean:.15g} below floor {floor:.15g}")
            # (c) sharpness: at a2 = 0 the two branches coincide and the mean
            # sits on the floor, so no a2-free floor can be larger
            on_axis = jensen_expected_distance(rho, tau, nu, a1, 0.0)
            if abs(on_axis - floor) > rel * floor:
                failures.append(f"{where}: at a2=0 E[g] {on_axis:.15g} != floor {floor:.15g}")
            rms = math.sqrt(dx * dx + dy * dy + a2 * a2)
            rms_broken += rms - mean > 1e-9
        print(f"{name}: {len(points)} tuples, worst floor - E[g] {worst:.3g}; "
              f"RMS form broken at {rms_broken} of {len(points)}")
    counter = jensen_expected_distance(1.0, 2.0, 0.7, 0.5, 0.3)
    print(f"  note: at rho=1, tau=2, nu=0.7, a1=0.5, a2=0.3 E[g] is {counter:.12g}, "
          f"below the RMS form {math.sqrt(2.3):.12g}")
    _verdict(6, "sharp expected-distance floor", failures)


# ---------------------------------------------------------------------------
# 7. degradation metrics against continuous sensing
# ---------------------------------------------------------------------------


def test_criterion_7_degradation_metrics():
    failures = []
    rho0, r_cap = 5.0, 0.1
    for nu in (0.5, 0.6, 0.7, 0.8):
        chase_bound = (rho0 - r_cap) / (1.0 - nu)
        t_f = 0.9 * chase_bound
        rep = degradation_report(rho0, t_f, nu, HINGE)

        # independent recomputation, longhand
        gap = rho0 - (1.0 - nu) * t_f
        n_star = math.floor((math.log(gap) - math.log(rho0)) / math.log(nu) + 1e-12)
        if rep.n_star != n_star:
            failures.append(f"nu={nu}: n_star {rep.n_star} != recomputed {n_star}")
        cp = max(gap - r_cap, 0.0)
        if abs(rep.continuous_payoff - cp) > 1e-12 * max(1.0, cp):
            failures.append(f"nu={nu}: continuous payoff {rep.continuous_payoff} != {cp}")
        for n in range(n_star + 1):
            shrink = nu ** (n + 1)
            beta = shrink / (1.0 - shrink) * ((1.0 - nu) * t_f / gap) - 1.0
            if abs(rep.betas[n] - beta) > 1e-12 * max(1.0, abs(beta)):
                failures.append(f"nu={nu}, n={n}: beta {rep.betas[n]} != {beta}")
            if n < n_star:
                delta = max((1.0 - nu) / (1.0 - shrink) * shrink * t_f - r_cap, 0.0) - cp
                if abs(rep.deltas[n] - delta) > 1e-12 * max(1.0, abs(delta)):
                    failures.append(f"nu={nu}, n={n}: delta {rep.deltas[n]} != {delta}")
                if rep.deltas[n] < rep.betas[n] * cp - 1e-9 * max(1.0, abs(beta * cp)):
                    failures.append(f"nu={nu}, n={n}: delta below beta * continuous payoff")
        if not all(a > b for a, b in zip(rep.betas, rep.betas[1:])):
            failures.append(f"nu={nu}: betas not strictly decreasing: {rep.betas}")

        # with time to spare the last sensing closes the whole gap
        spare = degradation_report(rho0, 1.1 * chase_bound, nu, HINGE)
        if abs(spare.deltas[spare.n_star]) > 1e-12:
            failures.append(f"nu={nu}: residual degradation {spare.deltas[spare.n_star]:.3g} "
                            f"with a full-length horizon")

        # the table played: continuous pursuit of the radial evader pays the
        # continuous payoff, and the waiting pursuer's exact expectation
        # against the randomizing evader pays the value bound at every budget
        def played_config(n):
            return GameConfig(nu=nu, r_cap=r_cap, x_p0=Vec2(0.0, 0.0),
                              x_e0=Vec2(rho0, 0.0), t_f=t_f, n=n, phi=HINGE)

        chased = simulate(played_config(0), ContinuousPursuer(), RadialEvader()).outcome.payoff
        if abs(chased - rep.continuous_payoff) > 1e-12 * abs(rep.continuous_payoff):
            failures.append(f"nu={nu}: continuous pursuit pays {chased}, "
                            f"table says {rep.continuous_payoff}")
        played = []
        for n in range(n_star + 1):
            expected = exact_expected_payoff(played_config(n), WaitingPursuer())
            bound = value_bound(rho0, t_f, n, HINGE, nu).value
            if abs(expected - bound) > 1e-12 * abs(bound):
                failures.append(f"nu={nu}, n={n}: waiting pursuer E[payoff] {expected} "
                                f"!= value bound {bound}")
            played.append(expected - chased)
        if any(later > earlier for earlier, later in zip(played, played[1:])):
            failures.append(f"nu={nu}: played deltas increase with n: {played}")
    _verdict(7, "degradation metrics", failures)


# ---------------------------------------------------------------------------
# 8. engine vs. dense oracle, and the two contraction-factor forms
# ---------------------------------------------------------------------------


def test_criterion_8_oracle_and_contraction_forms():
    failures = []
    report = oracle_agreement_check(n_scenarios=100, dt=1e-5, seed=0)
    if not report.passed:
        failures.extend(f"oracle: {line}" for line in report.failures[:5])
    print(f"  {report.notes[0]}, worst gap {report.worst_violation:.3e}")

    singular = 1.0 / math.sqrt(2.0)
    worst = 0.0
    for nu in np.linspace(0.002, 0.998, 1993):
        nu = float(nu)
        if abs(nu - singular) <= 1e-3:
            continue
        worst = max(worst, abs(self_triggered_contraction(nu)
                               - textbook_contraction(nu)))
    if worst > 1e-10:
        failures.append(f"contraction forms disagree by {worst:.3e} away from the singularity")
    h_mid = self_triggered_contraction(singular)
    if not math.isfinite(h_mid):
        failures.append("simplified contraction not finite at the removable singularity")
    lo = self_triggered_contraction(singular - 1e-3)
    hi = self_triggered_contraction(singular + 1e-3)
    if not lo < h_mid < hi:
        failures.append(f"contraction not monotone through the singularity: "
                        f"{lo} / {h_mid} / {hi}")
    print(f"  contraction forms agree to {worst:.3e} off the singularity")
    _verdict(8, "dense-oracle agreement and contraction forms", failures)
