"""Tests for the verification suites and their helper strategies."""

import math
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intermittent_pursuit import (
    CHECK_TOL,
    EvaderAction,
    PursuerAction,
    ArrivalSensingPursuer,
    ContinuousPursuer,
    GameConfig,
    PayoffSpec,
    RadialEvader,
    ScriptedEvader,
    SUITE_NAMES,
    Vec2,
    VerificationReport,
    WaitingPursuer,
    capture_time_bound_check,
    default_evader_config,
    default_pursuer_config,
    dense_oracle,
    evader_guarantee_check,
    exact_expected_payoff,
    jensen_bound_check,
    jensen_claimed_floor,
    jensen_expected_distance,
    jensen_random_sweep,
    oracle_agreement_check,
    pursuer_guarantee_check,
    random_piecewise_evader,
    run_suite,
    simulate,
    trial_rng,
)
from intermittent_pursuit import engine, sensing_delay, verify
from intermittent_pursuit.core import before, exceeds, line_of_sight, perpendicular
from intermittent_pursuit.verify import (_early_sense, _endpoint_run, _first_leg,
                                         _radial_speed_at_capture, _rotated)
from conftest import CrookedHeading, Speeder, make_config


class TestReport:
    def test_json_layout(self):
        report = VerificationReport(
            suite="demo", trials=3, worst_violation=-0.5, failures=(), notes=("fine",),
        )
        data = report.to_json_dict()
        assert list(data) == [
            "suite", "trials", "tolerance", "worst_violation", "failures", "passed", "notes",
        ]
        assert data["passed"] is True and data["tolerance"] == CHECK_TOL
        assert data["failures"] == []

    @pytest.mark.parametrize("count", [0, 1, 12, 13, 40])
    def test_keeps_every_failure_and_caps_only_the_json(self, count):
        failures = tuple(f"trial_{i}: broke" for i in range(count))
        report = VerificationReport("demo", count, 1.0, failures, ("note",))
        capped = list(failures)
        if len(capped) > 12:
            capped = capped[:12] + [f"... and {len(capped) - 12} more"]
        assert report.to_json_dict() == {
            "suite": "demo", "trials": count, "tolerance": CHECK_TOL,
            "worst_violation": 1.0, "failures": capped, "passed": count == 0,
            "notes": ["note"],
        }
        assert len(report.failures) == count
        assert report.passed is (count == 0)


# Longhand references: the evader suite's deviations as the classes they
# were before they became scripts.  Each computes every action afresh from
# its info.
class EndpointReference:
    def __init__(self, alpha1, alpha2):
        self.alpha1, self.alpha2 = float(alpha1), float(alpha2)

    def act(self, info):
        cfg = info.config
        bearing = line_of_sight(cfg.x_p0, cfg.x_e0)
        offset = bearing * self.alpha1 + perpendicular(bearing, 1) * self.alpha2
        length = offset.norm()
        if length == 0.0:
            return PursuerAction()
        if exceeds(length, cfg.t_f):
            raise ValueError(f"endpoint offset {length} is beyond reach {cfg.t_f}")
        return PursuerAction(offset * (1.0 / length) * min(length / cfg.t_f, 1.0))


class EarlyWaitReference(WaitingPursuer):
    def __init__(self, sense_time):
        if not sense_time > 0:
            raise ValueError(f"sense_time must be positive, got {sense_time}")
        self.sense_time = float(sense_time)

    def act(self, info):
        if len(info.log.times) > 1 or info.log.budget_remaining == 0:
            return super().act(info)
        if not before(info.time, self.sense_time):
            return PursuerAction(sense_now=True)
        _, anchor_e, _, _ = info.log.anchor()
        remaining = info.own.dist(anchor_e)
        if remaining > CHECK_TOL:
            arrive = info.time + remaining
            return PursuerAction(line_of_sight(info.own, anchor_e),
                                 review_at=min(arrive, self.sense_time))
        return PursuerAction(review_at=self.sense_time)


class FirstLegReference(WaitingPursuer):
    def __init__(self, angle, gamma):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        self.angle, self.gamma = float(angle), float(gamma)

    def act(self, info):
        if len(info.log.times) > 1:
            return super().act(info)
        cfg = info.config
        walk_end = min(cfg.initial_distance, cfg.t_f)
        ell = info.log.budget_remaining
        t_sense = sensing_delay(cfg.nu, ell, cfg.t_f)
        if before(info.time, walk_end) and self.gamma > 0.0:
            bearing = line_of_sight(cfg.x_p0, cfg.x_e0)
            return PursuerAction(_rotated(bearing, self.angle) * self.gamma,
                                 review_at=walk_end)
        if ell == 0:
            return PursuerAction()
        if before(info.time, t_sense):
            return PursuerAction(review_at=t_sense)
        return PursuerAction(sense_now=True)


def _leaves_or_error(config, make):
    """``engine._leaves`` of the pursuer ``make()`` builds, or the type of what either raised."""
    try:
        return engine._leaves(config, make())
    except Exception as exc:  # the comparison is on the exception type
        return type(exc)


_SCRIPTS = {
    "endpoint": (_endpoint_run, EndpointReference),
    "early_sense": (_early_sense, EarlyWaitReference),
    "first_leg": (_first_leg, FirstLegReference),
}


class TestDeviationPursuers:
    def test_endpoint_run(self):
        cfg = make_config(t_f=2.0, n=0)
        pursuer = _endpoint_run(cfg, 0.5, 0.3)
        result = simulate(cfg, pursuer, ScriptedEvader(()))
        assert not result.outcome.captured
        end = result.pursuer_trajectory.end_position
        assert end.x == pytest.approx(0.5, abs=1e-12)
        assert end.y == pytest.approx(0.3, abs=1e-12)
        # constant speed: the whole horizon is spent on the straight run
        assert result.pursuer_trajectory.path_length() == pytest.approx(
            math.hypot(0.5, 0.3), rel=1e-12
        )

    def test_endpoint_out_of_reach(self):
        cfg = make_config(t_f=1.0, n=0)
        with pytest.raises(ValueError, match="beyond reach"):
            _endpoint_run(cfg, 3.0, 0.0)

    def test_endpoint_opt_ties_stop_case_bound(self):
        cfg = default_evader_config()
        expected = exact_expected_payoff(cfg, _endpoint_run(cfg, 1.0, 0.0))
        assert expected == pytest.approx(1.3, rel=1e-9)

    def test_early_wait_senses_at_requested_time(self):
        cfg = make_config()  # prescribed first sensing would come at ~2.283
        result = simulate(cfg, _early_sense(cfg, 1.5), _equilibrium(cfg))
        assert result.outcome.sensing_times[0] == pytest.approx(1.5, rel=1e-9)
        with pytest.raises(ValueError, match="sense_time must be positive"):
            _early_sense(cfg, 0.0)

    def test_unperturbed_first_leg_matches_prescribed(self):
        cfg = make_config()
        base = exact_expected_payoff(cfg, WaitingPursuer())
        same = exact_expected_payoff(cfg, _first_leg(cfg, 0.0, 1.0))
        assert same == pytest.approx(base, rel=1e-12)
        with pytest.raises(ValueError, match="gamma must lie in"):
            _first_leg(cfg, 0.0, 1.5)

    @pytest.mark.parametrize("rho0, t_f", [(0.0, 2.0), (1.0, 0.0)],
                             ids=["caught_at_t0", "no_time"])
    def test_scripts_build_for_games_without_events(self, rho0, t_f):
        # the deleted classes were never queried here; the scripts build and agree
        cfg = make_config(rho0=rho0, t_f=t_f, n=1)
        for builder, args in ((_endpoint_run, (0.0, 0.0)), (_early_sense, (0.5,)),
                              (_first_leg, (0.2, 0.8))):
            assert engine._leaves(cfg, builder(cfg, *args)) == engine._leaves(cfg, WaitingPursuer())

    @settings(max_examples=400)
    @given(
        kind=st.sampled_from(sorted(_SCRIPTS)),
        p=st.floats(-1.0, 6.0),
        q=st.floats(-3.0, 3.0),
        nu=st.floats(0.2, 0.9),
        rho=st.floats(0.0, 3.0),
        angle=st.floats(0.0, 2.0 * math.pi),
        t_f=st.floats(0.0, 6.0),
        n=st.integers(0, 4),
    )
    @example(kind="early_sense", p=0.5, q=0.0, nu=0.7, rho=1.0, angle=0.0, t_f=5.0, n=0)
    @example(kind="first_leg", p=4.0, q=0.4, nu=0.7, rho=3.0, angle=1.0, t_f=5.0, n=4)
    # a leg plays until its end time, but a walk of a rounding step is not taken
    @example(kind="endpoint", p=5e-14, q=0.0, nu=0.7, rho=1.0, angle=0.0, t_f=1e-13, n=1)
    @example(kind="first_leg", p=4.0, q=0.0, nu=0.7, rho=1.0, angle=0.0, t_f=1e-13, n=0)
    @example(kind="early_sense", p=1e-13, q=0.0, nu=0.7, rho=1.0, angle=0.0, t_f=5.0, n=1)
    def test_scripts_equal_the_deleted_classes_property(self, kind, p, q, nu, rho, angle, t_f, n):
        """Each builder's script plays the same prefix tree as the class it replaced.

        Where the class raises, the script raises the same error type; a
        script may raise when it is built where the class, queried only in
        play, raised nothing because the game plays no event.
        """
        cfg = GameConfig(
            nu=nu, r_cap=0.1, x_p0=Vec2(0.0, 0.0),
            x_e0=Vec2(rho * math.cos(angle), rho * math.sin(angle)),
            t_f=t_f, n=n, phi=PayoffSpec("hinge", 0.1),
        )
        builder, reference = _SCRIPTS[kind]
        # the ranges include sense times <= 0 and gammas outside [0, 1], which both reject
        args = {"endpoint": (p, q), "early_sense": (p,), "first_leg": (q / 2.0, p / 4.0)}[kind]
        expected = _leaves_or_error(cfg, lambda: reference(*args))
        try:
            script = builder(cfg, *args)
        except ValueError as exc:
            no_event = not isinstance(expected, type) and [d for _, d in expected] == [0]
            assert expected is type(exc) or no_event
            return
        assert _leaves_or_error(cfg, lambda: script) == expected


def _equilibrium(cfg):
    from intermittent_pursuit import EquilibriumEvader, theta_stream

    return EquilibriumEvader(theta_stream(cfg.seed, 0, cfg.n + 1))


class TestRandomPiecewiseEvader:
    def test_feasible_and_deterministic(self):
        cfg = make_config(t_f=3.0)
        evader = random_piecewise_evader(cfg, trial_rng(0, 5))
        again = random_piecewise_evader(cfg, trial_rng(0, 5))
        assert evader.legs == again.legs
        assert evader.legs
        for t_end, velocity in evader.legs:
            assert 0 < t_end <= cfg.t_f + 1e-12
            assert velocity.norm() <= cfg.nu + 1e-12


class TestGuaranteeChecks:
    def test_pursuer_suite_passes(self):
        report = pursuer_guarantee_check(trials=40, seed=1)
        assert report.passed, report.failures
        assert report.suite == "pursuer"
        assert report.trials == 40
        assert report.worst_violation <= report.tolerance
        print("pursuer worst violation:", report.worst_violation)

    def test_pursuer_suite_other_config(self):
        cfg = make_config(rho0=2.0, t_f=1.2, n=1)  # time-limited region
        report = pursuer_guarantee_check(cfg, trials=25, seed=3)
        assert report.passed, report.failures

    def test_evader_suite_passes_on_stop_case(self):
        report = evader_guarantee_check()
        assert report.passed, report.failures
        assert report.suite == "evader"
        # the optimum endpoint must show up as the arg-min of the sweep
        assert any("endpoint_opt" in note or "minimum" in note for note in report.notes)

    def test_evader_suite_skips_loose_region(self):
        cfg = GameConfig(
            nu=0.7, r_cap=0.1,
            x_p0=Vec2(0.0, 0.0), x_e0=Vec2(0.16, 0.0),
            t_f=2.0, n=0, phi=PayoffSpec("hinge", 0.1),
        )
        report = evader_guarantee_check(cfg)
        assert report.passed
        assert report.trials == 0
        assert any("not tight" in note for note in report.notes)

    def test_evader_suite_endpoint_a_rounding_step_beyond_reach(self):
        # rho0 = t_f (1 + 2.5e-13): the reach check admits the optimal endpoint,
        # which must then run at full speed, not at a fraction just above 1
        cfg = make_config(rho0=2.0000000000005, t_f=2.0, n=0)
        report = evader_guarantee_check(cfg)
        assert report.passed, report.failures
        assert report.trials > 0

    def test_evader_suite_with_budget_and_early_senses(self):
        cfg = make_config(t_f=4.0, n=1)
        report = evader_guarantee_check(cfg)
        assert report.passed, report.failures

    def test_capture_time_suite(self):
        report = capture_time_bound_check(trials=25, seed=2)
        assert report.passed, report.failures
        assert report.suite == "capture_time"
        with pytest.raises(ValueError, match="r_cap < rho0"):
            capture_time_bound_check(make_config(rho0=0.05, r_cap=0.1))

    def test_capture_time_suite_reads_only_the_separation(self):
        # x_e0 = [3, 4] is 5 away, like the default's [5, 0]: the suite
        # replays the game on the +x axis, so the report is the same
        off_axis = replace(make_config(rho0=5.0, t_f=9.0, n=0, seed=4), x_e0=Vec2(3.0, 4.0))
        report = capture_time_bound_check(off_axis, trials=30, seed=1)
        assert report.to_json_dict() == capture_time_bound_check(trials=30, seed=1).to_json_dict()
        assert run_suite("capture_time", off_axis, trials=30, seed=1) == [report]

    def test_pursuer_suite_memory_does_not_grow_with_trials(self):
        """Each random evader is played before the next is built: 4x the trials, same peak."""
        cfg = replace(default_pursuer_config(), t_f=0.05, n=0)  # legs drawn, games short
        pursuer_guarantee_check(cfg, trials=10)  # lazy set-up happens outside the count
        peaks = []
        for trials in (2000, 8000):
            tracemalloc.start()
            try:
                report = pursuer_guarantee_check(cfg, trials=trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.passed and report.trials == trials
        assert peaks[1] < 1.5 * peaks[0], peaks


class ParkedPursuer:
    """Never moves and never senses."""

    def act(self, info):
        return PursuerAction()


class SlowArrival(ArrivalSensingPursuer):
    """The arrival-sensing pursuer at 0.95 of its speed."""

    def act(self, info):
        action = super().act(info)
        return PursuerAction(action.velocity * 0.95, action.sense_now, action.review_at)


class SlowRadial(RadialEvader):
    """Radial flight at 0.9 of the evader's top speed."""

    def act(self, info):
        action = super().act(info)
        return EvaderAction(action.velocity * 0.9, action.review_at)


class TestSuitesCanFail:
    """Negative controls: each suite reports a claim broken from outside."""

    @staticmethod
    def _assert_fails_with(report, pattern):
        assert report.passed is False
        assert any(re.fullmatch(pattern, line) for line in report.failures), report.failures

    def test_pursuer_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "WaitingPursuer", ParkedPursuer)
        self._assert_fails_with(pursuer_guarantee_check(trials=4),
                                r"radial: payoff \S+ exceeds bound \S+")

    def test_capture_time_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "ArrivalSensingPursuer", ParkedPursuer)
        self._assert_fails_with(capture_time_bound_check(trials=2),
                                "radial: no capture within twice the bound")

    def test_capture_time_suite_late_capture(self, monkeypatch):
        monkeypatch.setattr(verify, "ArrivalSensingPursuer", SlowArrival)
        self._assert_fails_with(capture_time_bound_check(trials=2),
                                r"radial: capture at \S+ after bound \S+")

    def test_capture_time_suite_sensing_count(self, monkeypatch):
        true_budget = verify.travel_budget
        monkeypatch.setattr(verify, "travel_budget", lambda *args: (
            true_budget(*args)[0] - 1, true_budget(*args)[1]))
        self._assert_fails_with(capture_time_bound_check(trials=2),
                                r"radial: \d+ sensings exceed the budget bound \d+")

    def test_capture_time_suite_path_past_elapsed_time(self, monkeypatch):
        true_length = engine.Trajectory.path_length
        monkeypatch.setattr(engine.Trajectory, "path_length",
                            lambda self: 2.0 * true_length(self))
        self._assert_fails_with(capture_time_bound_check(trials=2),
                                r"stationary: path \S+ longer than travel time \S+")

    def test_capture_time_suite_path_past_travel_budget(self, monkeypatch):
        true_budget = verify.travel_budget
        monkeypatch.setattr(verify, "travel_budget", lambda *args: (
            true_budget(*args)[0], 0.5 * true_budget(*args)[1]))
        self._assert_fails_with(capture_time_bound_check(trials=2),
                                r"radial: path \S+ beyond travel budget \S+")

    def test_capture_time_suite_radial_flight_attains_the_bound(self, monkeypatch):
        monkeypatch.setattr(verify, "RadialEvader", SlowRadial)
        self._assert_fails_with(capture_time_bound_check(trials=2),
                                r"radial: capture \S+ does not attain \S+")

    def test_capture_time_suite_stationary_capture(self, monkeypatch):
        # the "stationary" evader steps 0.5 away first (random evaders are not played)
        monkeypatch.setattr(verify, "ScriptedEvader",
                            lambda legs: ScriptedEvader([(1.0, Vec2(0.5, 0.0))]))
        self._assert_fails_with(capture_time_bound_check(trials=2),
                                r"stationary: capture \S+ != \S+")

    def test_evader_suite(self, monkeypatch):
        true_bound = verify.value_bound
        monkeypatch.setattr(verify, "value_bound", lambda *args: replace(
            true_bound(*args), value=2.0 * true_bound(*args).value + 0.01))
        self._assert_fails_with(evader_guarantee_check(),
                                r"endpoint\(\S+\): E\[payoff\] \S+ below bound \S+")

    def test_oracle_suite(self, monkeypatch):
        true_root = engine._capture_root
        monkeypatch.setattr(engine, "_capture_root", lambda *args: true_root(
            *args[:10], 0.5 * args[10]))
        self._assert_fails_with(oracle_agreement_check(n_scenarios=6),
                                r"scenario_\d+: capture-time gap \S+ outside the envelope")

    @pytest.mark.parametrize("change, pattern", [
        ({"payoff": 0.5}, r"scenario_\d+: payoff gap 0\.5"),
        ({"sensing_times": (-1.0,)}, r"scenario_\d+: sensing schedules differ"),
    ])
    def test_oracle_suite_on_misses(self, change, pattern, monkeypatch):
        """A miss whose oracle payoff or schedule is perturbed (2 of the 6 scenarios miss)."""
        true_oracle = verify.dense_oracle

        def perturbed(*args):
            outcome = true_oracle(*args)
            if outcome.captured:
                return outcome
            return outcome._replace(**{key: getattr(outcome, key) + shift
                                       for key, shift in change.items()})

        monkeypatch.setattr(verify, "dense_oracle", perturbed)
        self._assert_fails_with(oracle_agreement_check(n_scenarios=6), pattern)

    def test_oracle_suite_generator_shortfall(self, monkeypatch):
        # every candidate is caught at t = 0, too close to the start for the grid
        caught = make_config(rho0=0.05)
        monkeypatch.setattr(verify, "_oracle_scenario",
                            lambda seed, cand: (caught, WaitingPursuer(), RadialEvader()))
        self._assert_fails_with(oracle_agreement_check(n_scenarios=1),
                                "generator accepted only 0 of 1 scenarios")


class TestJensenSuite:
    def test_counterexample_numbers(self):
        expected = jensen_expected_distance(1.0, 2.0, 0.7, 0.5, 0.3)
        claimed = jensen_claimed_floor(1.0, 2.0, 0.7, 0.5, 0.3)
        assert expected == pytest.approx(1.4901545560131958, rel=1e-12)
        assert claimed == pytest.approx(math.sqrt(2.3), rel=1e-12)
        assert expected < claimed  # the claimed floor sits above the mean

    def test_grid_check_fails_as_documented(self):
        report = jensen_bound_check()
        assert not report.passed
        assert report.worst_violation > 1e-3
        assert any("RMS" in note for note in report.notes)
        assert any("equality holds" in note for note in report.notes)
        assert any("alpha2-free floor holds" in note for note in report.notes)
        print("jensen worst violation:", report.worst_violation)

    def test_random_sweep_fails_too(self):
        report = jensen_random_sweep(n=200, seed=0)
        assert not report.passed
        assert report.trials == 200

    def test_random_sweep_keeps_every_failure(self):
        report = jensen_random_sweep(1000, 0)
        assert len(report.failures) == 1000
        assert report.to_json_dict()["failures"][-1] == "... and 988 more"

    def test_validation(self):
        with pytest.raises(ValueError):
            jensen_random_sweep(n=0)


class TestDenseOracle:
    def test_capture_agreement_head_on(self):
        cfg = make_config(rho0=1.0, t_f=3.0, n=0)
        from intermittent_pursuit import ArrivalSensingPursuer

        evader = ScriptedEvader(())
        engine = simulate(cfg, ArrivalSensingPursuer(), evader)
        oracle = dense_oracle(cfg, ArrivalSensingPursuer(), evader, dt=1e-3)
        assert engine.outcome.captured and oracle.captured
        delta = oracle.capture_time - engine.outcome.capture_time
        assert -1e-9 <= delta <= 1e-3 * (1 + cfg.nu) + 1e-9
        print(f"oracle lag on head-on capture: {delta:.3e}")

    def test_miss_agreement(self):
        cfg = make_config(rho0=2.0, t_f=0.8, n=1)
        from intermittent_pursuit import ArrivalSensingPursuer, RadialEvader

        engine = simulate(cfg, ArrivalSensingPursuer(), RadialEvader())
        oracle = dense_oracle(cfg, ArrivalSensingPursuer(), RadialEvader(), dt=1e-3)
        assert not engine.outcome.captured and not oracle.captured
        assert oracle.payoff == pytest.approx(engine.outcome.payoff, abs=1e-12)
        assert oracle.sensing_times == engine.outcome.sensing_times

    def test_validation(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            dense_oracle(cfg, WaitingPursuer(), ScriptedEvader(()), dt=0.0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, -1.0])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, dt):
        cfg = make_config()
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            dense_oracle(cfg, WaitingPursuer(), ScriptedEvader(()), dt=dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            oracle_agreement_check(n_scenarios=6, dt=dt)

    @settings(max_examples=60)
    @given(nu=st.floats(0.1, 0.9), r_cap=st.floats(0.02, 0.3), rho0=st.floats(0.5, 3.0),
           slack=st.floats(1.05, 2.0), speed=st.floats(0.0, 1.0),
           heading=st.floats(0.0, 2.0 * math.pi), miss=st.floats(0.0, 0.9),
           miss_angle=st.floats(0.0, 2.0 * math.pi))
    def test_capture_root_matches_oracle_on_transversal_approaches_property(
            self, nu, r_cap, rho0, slack, speed, heading, miss, miss_angle):
        """The engine's root and the dense scan agree on one constant-velocity segment pair.

        The evader runs one leg to the horizon; the pursuer runs straight to a
        point within ``miss * r_cap`` of where that leg ends, so every game
        captures.  As in ``oracle_agreement_check``, draws that graze (radial
        speed at capture of -0.05 or more) or capture within 2 dt of either
        end are dropped; the oracle must then see capture no earlier than the
        engine and at most dt * (1 + nu) later.
        """
        dt = 1e-3
        t_f = slack * (rho0 + r_cap) / (1.0 - nu)
        cfg = make_config(nu=nu, r_cap=r_cap, rho0=rho0, t_f=t_f, n=0)
        v_e = Vec2(math.cos(heading), math.sin(heading)) * (speed * nu)
        end = (cfg.x_e0 + v_e * t_f
               + Vec2(math.cos(miss_angle), math.sin(miss_angle)) * (miss * r_cap))
        pursuer, evader = _endpoint_run(cfg, end.x, end.y), ScriptedEvader([(t_f, v_e)])
        result = simulate(cfg, pursuer, evader)
        assert result.outcome.captured
        assert len(result.pursuer_trajectory.segments) == 1
        t = result.outcome.capture_time
        assume(2.0 * dt <= t <= t_f - 2.0 * dt)
        assume(_radial_speed_at_capture(result) < -0.05)
        oracle = dense_oracle(cfg, pursuer, evader, dt)
        assert oracle.captured
        assert -CHECK_TOL <= oracle.capture_time - t <= dt * (1.0 + nu) + CHECK_TOL

    @pytest.mark.parametrize("pursuer, evader, message", [
        (CrookedHeading(), RadialEvader(), "exceeds the cap"),
        (ArrivalSensingPursuer(), Speeder(), "exceeds"),
        (CrookedHeading(Vec2(math.nan, 0.0)), RadialEvader(), "exceeds the cap"),
        (CrookedHeading(Vec2(math.inf, 0.0)), RadialEvader(), "exceeds the cap"),
        (ArrivalSensingPursuer(), Speeder(Vec2(math.nan, 0.0)), "exceeds"),
        (ArrivalSensingPursuer(), Speeder(Vec2(math.inf, 0.0)), "exceeds"),
    ], ids=["crooked_heading", "speeder", "nan_heading", "inf_heading", "nan_velocity",
            "inf_velocity"])
    def test_malformed_actions_rejected(self, pursuer, evader, message):
        # the oracle plays through the engine's loop, so it runs the same checks;
        # these are the only finiteness checks on actions, since Vec2 has none
        cfg = make_config(rho0=2.0, t_f=5.0, n=0)
        for play in (simulate, dense_oracle):
            with pytest.raises(ValueError, match=message):
                play(cfg, pursuer, evader)

    def test_event_budget(self, monkeypatch):
        cfg = make_config(rho0=3.0, t_f=3.0, n=0)
        monkeypatch.setattr(engine, "_MAX_EVENTS", 100)
        with pytest.raises(RuntimeError, match="event budget"):
            dense_oracle(cfg, ContinuousPursuer(review_dt=1e-4), RadialEvader())

    def test_agreement_suite(self):
        report = oracle_agreement_check(n_scenarios=6, dt=1e-3, seed=0)
        assert report.passed, report.failures
        assert report.trials == 6
        print("oracle notes:", report.notes)

    def test_block_size_changes_no_outcome(self, monkeypatch):
        """Scanning each interval in blocks of 5 samples finds what one pass finds."""
        scenarios = [verify._oracle_scenario(0, cand) for cand in range(12)]
        whole = [dense_oracle(*scenario) for scenario in scenarios]
        assert 0 < sum(outcome.captured for outcome in whole) < len(whole)
        monkeypatch.setattr(verify, "_ORACLE_BLOCK", 5)
        assert [dense_oracle(*scenario) for scenario in scenarios] == whole

    def test_longest_horizon_bounds_every_scenario(self):
        horizons = [verify._oracle_scenario(seed, cand)[0].t_f
                    for seed in (0, 1) for cand in range(500)]
        assert max(horizons) <= verify._LONGEST_T_F

    @pytest.mark.parametrize("n_scenarios, dt", [
        (100, 1e-5),  # acceptance criterion 8
        (50, 1e-6),  # verify oracle --dt 1e-6 at the default --trials
    ])
    def test_sample_cap_admits(self, n_scenarios, dt, monkeypatch):
        class Started(Exception):
            pass

        def first_scenario(seed, cand):
            raise Started

        monkeypatch.setattr(verify, "_oracle_scenario", first_scenario)
        with pytest.raises(Started):
            oracle_agreement_check(n_scenarios, dt)


class TestRunSuite:
    def test_names(self):
        assert SUITE_NAMES == ("pursuer", "evader", "jensen", "capture_time", "oracle")
        with pytest.raises(ValueError):
            run_suite("nonsense")

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_trials_must_be_positive(self, name):
        # checked for every suite, also those that ignore trials
        with pytest.raises(ValueError, match="trials must be positive, got 0"):
            run_suite(name, trials=0)

    def test_jensen_returns_two_reports(self):
        reports = run_suite("jensen", trials=50)
        assert [r.suite for r in reports] == ["jensen", "jensen_random"]
        assert not any(r.passed for r in reports)

    def test_capture_time_uses_config_geometry(self):
        cfg = make_config(rho0=3.0)
        report, = run_suite("capture_time", cfg, trials=10, seed=0)
        assert report.passed, report.failures
        assert "time bound 9.66666" in report.notes[0]
