"""Tests for the event-driven simulator and expectation helpers."""

import csv
import itertools
import math
import pickle
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intermittent_pursuit import (
    CASE_TAGS,
    ArrivalSensingPursuer,
    BudgetViolationError,
    ContinuousPursuer,
    EnumerationCapError,
    EquilibriumEvader,
    EvaderAction,
    EvaderInfo,
    GameConfig,
    Outcome,
    PayoffSpec,
    PursuerAction,
    PursuerInfo,
    RadialEvader,
    ScriptedEvader,
    ScriptedPursuer,
    Segment,
    SelfTriggeredPursuer,
    SimulationResult,
    Trajectory,
    Vec2,
    WaitingPursuer,
    build_evader,
    build_pursuer,
    core,
    detect_capture,
    engine,
    enumerate_branch_payoffs,
    exact_expected_payoff,
    fmt_g,
    mc_expected_payoff,
    random_piecewise_evader,
    sampled_expected_payoff,
    simulate,
    trial_rng,
    value_bound,
    write_trajectory_csv,
)
from intermittent_pursuit.verify import _early_sense, _endpoint_run, _first_leg
from conftest import CrookedHeading, Speeder, make_config


class Fixed:
    """Stub pursuer that returns one action at every query."""

    def __init__(self, action):
        self.action = action

    def act(self, info):
        return self.action


class TestSegmentsAndTrajectories:
    def test_segment_positions(self):
        seg = Segment(1.0, 3.0, Vec2(0.0, 0.0), Vec2(0.5, -0.5))
        assert seg.position_at(2.0) == Vec2(0.5, -0.5)
        assert seg.end_position == Vec2(1.0, -1.0)

    def test_trajectory_queries(self):
        segs = (
            Segment(0.0, 1.0, Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
            Segment(1.0, 3.0, Vec2(1.0, 0.0), Vec2(0.0, 1.0)),
        )
        traj = Trajectory(Vec2(0.0, 0.0), segs)
        assert traj.end_position == Vec2(1.0, 2.0)
        assert traj.path_length() == pytest.approx(3.0, abs=1e-15)

    def test_empty_trajectory(self):
        traj = Trajectory(Vec2(2.0, 2.0), ())
        assert traj.end_position == Vec2(2.0, 2.0)
        assert traj.path_length() == 0.0

    def test_result_records_are_frozen_values(self):
        cfg = make_config(rho0=2.0, t_f=3.0, n=1)
        result = simulate(cfg, WaitingPursuer(), EquilibriumEvader((1, -1)))
        for record in (result, result.outcome, result.pursuer_trajectory):
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record) and copy == record
            assert hash(copy) == hash(record)
            assert repr(record).startswith(f"{type(record).__name__}(")
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
        assert repr(result.outcome) == (
            f"Outcome(capture_time={result.outcome.capture_time!r}, "
            f"final_distance={result.outcome.final_distance!r}, payoff={result.outcome.payoff!r}, "
            f"sensing_times={result.outcome.sensing_times!r})")

    @settings(max_examples=40)
    @given(
        nu=st.floats(0.2, 0.9),
        rho=st.floats(0.05, 3.0),
        bearing=st.floats(0.0, 2 * math.pi),
        t_f=st.floats(0.01, 6.0),
        n=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        pursuer=st.sampled_from(("continuous", "prop1", "thm1", "aleem")),
        evader=st.sampled_from(("radial", "equilibrium", "scripted")),
    )
    def test_simulate_chains_segments_exactly_property(self, nu, rho, bearing, t_f, n,
                                                       seed, pursuer, evader):
        # Trajectory does not re-check its chain, so the engine must build it exactly
        cfg = GameConfig(nu=nu, r_cap=0.1, x_p0=Vec2(0.0, 0.0),
                         x_e0=Vec2(rho * math.cos(bearing), rho * math.sin(bearing)),
                         t_f=t_f, n=n, phi=PayoffSpec("hinge", 0.1), seed=seed)
        if evader == "scripted":
            strategy = random_piecewise_evader(cfg, trial_rng(seed, 0))
        else:
            strategy = build_evader(evader, cfg)
        result = simulate(cfg, build_pursuer(pursuer, cfg), strategy)
        for traj in (result.pursuer_trajectory, result.evader_trajectory):
            t, x = 0.0, traj.start_pos
            for seg in traj.segments:
                assert seg.t_start == t and seg.x0 == x
                assert seg.t_end > seg.t_start
                t, x = seg.t_end, seg.end_position
        final = result.pursuer_trajectory.end_position.dist(result.evader_trajectory.end_position)
        assert final == result.outcome.final_distance


class TestDetectCapture:
    def test_head_on(self):
        p = Segment(0.0, 2.0, Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        e = Segment(0.0, 2.0, Vec2(1.0, 0.0), Vec2(0.0, 0.0))
        assert detect_capture(p, e, 0.1) == pytest.approx(0.9, abs=1e-12)

    def test_already_inside(self):
        p = Segment(0.0, 1.0, Vec2(0.0, 0.0), Vec2(0.0, 0.0))
        e = Segment(0.0, 1.0, Vec2(0.05, 0.0), Vec2(0.0, 0.0))
        assert detect_capture(p, e, 0.1) == 0.0

    def test_receding_and_parallel_never_capture(self):
        p = Segment(0.0, 5.0, Vec2(0.0, 0.0), Vec2(-1.0, 0.0))
        e = Segment(0.0, 5.0, Vec2(1.0, 0.0), Vec2(0.0, 0.0))
        assert detect_capture(p, e, 0.1) is None
        v = Vec2(0.3, 0.4)
        p = Segment(0.0, 5.0, Vec2(0.0, 0.0), v)
        e = Segment(0.0, 5.0, Vec2(1.0, 0.0), v)
        assert detect_capture(p, e, 0.1) is None

    def test_tangency(self):
        # closest approach exactly r_cap: grazing counts as capture
        p = Segment(0.0, 3.0, Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        e = Segment(0.0, 3.0, Vec2(1.0, 0.1), Vec2(0.0, 0.0))
        t = detect_capture(p, e, 0.1)
        assert t == pytest.approx(1.0, rel=1e-6)

    def test_tangency_whose_discriminant_rounds_negative(self):
        # The closest approach is r_cap = 0.25, but the discriminant rounds to
        # -1.4e-17; only the clamp in _capture_root scores it as a capture.
        x_e, v_e = Vec2(0.7346489669355872, 0.25), Vec2(-0.22267798121760507, 0.0)
        b, c = 2.0 * x_e.x * v_e.x, x_e.dot(x_e) - 0.25 * 0.25
        assert b * b - 4.0 * v_e.dot(v_e) * c < 0.0
        parked = Segment(0.0, 5.0, Vec2(0.0, 0.0), Vec2(0.0, 0.0))
        assert detect_capture(parked, Segment(0.0, 5.0, x_e, v_e), 0.25) == 3.2991540650697506
        cfg = GameConfig(nu=0.5, r_cap=0.25, x_p0=Vec2(0.0, 0.0), x_e0=x_e, t_f=5.0, n=0,
                         phi=PayoffSpec("hinge", 0.25))
        outcome = simulate(cfg, ScriptedPursuer(), ScriptedEvader([(5.0, v_e)])).outcome
        assert outcome.captured
        assert outcome.capture_time == 3.2991540650697506

    def test_capture_past_segment_end(self):
        p = Segment(0.0, 0.5, Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        e = Segment(0.0, 0.5, Vec2(1.0, 0.0), Vec2(0.0, 0.0))
        assert detect_capture(p, e, 0.1) is None

    def test_offset_time_windows(self):
        p = Segment(0.0, 4.0, Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        e = Segment(1.0, 4.0, Vec2(2.0, 0.0), Vec2(0.0, 0.0))
        # overlap starts at t=1 with the pursuer already at x=1
        assert detect_capture(p, e, 0.1) == pytest.approx(1.9, abs=1e-12)
        disjoint = Segment(5.0, 6.0, Vec2(0.0, 0.0), Vec2(0.0, 0.0))
        with pytest.raises(ValueError):
            detect_capture(p, disjoint, 0.1)
        with pytest.raises(ValueError):
            detect_capture(p, e, 0.0)


class TestSimulate:
    def test_blind_dash_capture(self):
        # nu * rho0 <= r_cap: one straight dash captures a radial evader at
        # (rho0 - r_cap) / (1 - nu) without any sensing
        cfg = make_config(rho0=0.13, t_f=5.0, n=0)
        result = simulate(cfg, ArrivalSensingPursuer(), RadialEvader())
        out = result.outcome
        assert out.captured
        assert out.capture_time == pytest.approx(0.1, rel=1e-9)
        assert out.payoff == 0.0
        assert out.sensing_times == ()

    def test_continuous_baseline_capture_time(self):
        cfg = make_config(rho0=1.0, t_f=5.0, n=0)
        result = simulate(cfg, ContinuousPursuer(), RadialEvader())
        assert result.outcome.captured
        assert result.outcome.capture_time == pytest.approx(3.0, rel=1e-9)

    def test_wait_pursuer_attains_bound_on_every_branch(self):
        cfg = make_config()  # rho=1, tau=5, ell=2
        bound = value_bound(1.0, 5.0, 2, cfg.phi, cfg.nu)
        for thetas in ((1, 1, 1), (1, -1, 1), (-1, 1, -1)):
            result = simulate(cfg, WaitingPursuer(), EquilibriumEvader(thetas))
            out = result.outcome
            assert not out.captured
            assert out.payoff == pytest.approx(bound.value, rel=1e-12)
        # the first sensing instant comes from the pooled-wait split
        t1 = (1.0 - cfg.nu) * cfg.t_f / (1.0 - cfg.nu**3)
        assert result.outcome.sensing_times[0] == pytest.approx(t1, rel=1e-12)
        assert len(result.outcome.sensing_times) == 2

    def test_capture_at_start(self):
        cfg = make_config(rho0=0.05, t_f=5.0, n=2)
        result = simulate(cfg, ArrivalSensingPursuer(), RadialEvader())
        out = result.outcome
        assert out.captured and out.capture_time == 0.0
        assert result.pursuer_trajectory.segments == ()

    def test_zero_horizon(self):
        cfg = make_config(rho0=2.0, t_f=0.0, n=2)
        result = simulate(cfg, ArrivalSensingPursuer(), RadialEvader())
        assert not result.outcome.captured
        assert result.outcome.payoff == pytest.approx(cfg.phi.evaluate(2.0))

    def test_trajectories_are_consistent(self):
        cfg = make_config(rho0=2.0, t_f=1.5, n=1)
        result = simulate(cfg, ArrivalSensingPursuer(), RadialEvader(review_dt=0.2))
        p, e = result.pursuer_trajectory, result.evader_trajectory
        assert p.segments[-1].t_end == pytest.approx(e.segments[-1].t_end)
        # final outcome distance equals the trajectory-end distance
        assert result.outcome.final_distance == pytest.approx(
            p.end_position.dist(e.end_position), abs=1e-12
        )
        # pursuer never exceeds unit speed
        for seg in p.segments:
            assert seg.velocity.norm() <= 1.0 + 1e-12

    def test_budget_violation_raises(self):
        cfg = make_config(rho0=2.0, t_f=5.0, n=0)

        class GreedySensor:
            def act(self, info):
                return PursuerAction(sense_now=True)

        with pytest.raises(BudgetViolationError):
            simulate(cfg, GreedySensor(), RadialEvader())

    @settings(max_examples=20)
    @given(n=st.integers(0, 6), dt=st.floats(0.05, 1.0))
    def test_budget_violation_on_the_extra_request_property(self, n, dt):
        # n + 1 review times before the horizon: the last request is one too many
        pursuer = _SenseEachReview(dt)
        with pytest.raises(BudgetViolationError):
            simulate(make_config(rho0=2.0, t_f=(n + 1.5) * dt, n=n), pursuer, RadialEvader())
        assert pursuer.requests == n + 1
        # n review times: every request is granted
        pursuer = _SenseEachReview(dt)
        result = simulate(make_config(rho0=2.0, t_f=(n + 0.5) * dt, n=n), pursuer,
                          RadialEvader())
        assert pursuer.requests == n
        assert len(result.outcome.sensing_times) == n

    @settings(max_examples=20)
    @given(
        nu=st.floats(0.2, 0.9),
        rho=st.floats(0.05, 3.0),
        t_f=st.floats(0.0, 6.0),
        n=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        pursuer=st.sampled_from(("continuous", "prop1", "thm1", "aleem")),
        evader=st.sampled_from(("radial", "equilibrium")),
    )
    def test_rerun_gives_identical_outcome_property(self, nu, rho, t_f, n, seed,
                                                    pursuer, evader):
        cfg = make_config(nu=nu, rho0=rho, t_f=t_f, n=n, seed=seed)

        def play():
            return simulate(cfg, build_pursuer(pursuer, cfg),
                            build_evader(evader, cfg)).outcome

        assert play() == play()

    def test_double_sense_same_instant_rejected(self):
        cfg = make_config(rho0=2.0, t_f=5.0, n=5)

        class GreedySensor:
            def act(self, info):
                return PursuerAction(sense_now=True)

        with pytest.raises(ValueError, match="strictly increasing"):
            simulate(cfg, GreedySensor(), RadialEvader())

    def test_malformed_actions_rejected(self):
        cfg = make_config(rho0=2.0, t_f=5.0, n=0)
        with pytest.raises(ValueError, match="exceeds the cap"):
            simulate(cfg, CrookedHeading(), RadialEvader())
        with pytest.raises(ValueError, match="exceeds"):
            simulate(cfg, ArrivalSensingPursuer(), Speeder())

    @pytest.mark.parametrize("pursuer, evader, max_events, error, match", [
        (Fixed(PursuerAction(Vec2(1.5, 0.0))), RadialEvader(), 200_000, ValueError,
         "pursuer speed 1.5 exceeds the cap 1.0"),
        (Fixed(PursuerAction(None)), RadialEvader(), 200_000, ValueError,
         "pursuer velocity must be a Vec2, got None"),
        (ArrivalSensingPursuer(), Speeder((0.1, 0.0)), 200_000, ValueError,
         r"evader velocity must be a Vec2, got \(0.1, 0.0\)"),
        (Fixed(PursuerAction(review_at=math.nan)), RadialEvader(), 200_000,
         ValueError, "review_at must be a finite time or None, got nan"),
        # no review_dt, so only the in-loop count can stop the sixth event
        (Fixed(PursuerAction()),
         ScriptedEvader([(0.1 * k, Vec2(0.0, 0.0)) for k in range(1, 11)]), 5, RuntimeError,
         "event budget 5 exhausted at t=0.5"),
    ], ids=["speed_fraction", "no_heading", "tuple_velocity", "nan_review", "budget_in_loop"])
    def test_engine_rejects(self, pursuer, evader, max_events, error, match, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_EVENTS", max_events)
        with pytest.raises(error, match=match):
            simulate(make_config(rho0=2.0, t_f=5.0, n=0), pursuer, evader)

    @settings(max_examples=200)
    @given(
        role=st.sampled_from(("pursuer", "evader")),
        nu=st.floats(0.05, 0.95),
        # a multiple of the cap in [0, 2], or a few ROUND_TOL bands either side of 1
        ratio=st.one_of(st.floats(0.0, 2.0),
                        st.integers(-4, 4).map(lambda k: 1.0 + k * core.ROUND_TOL / 2)),
        angle=st.floats(0.0, 2.0 * math.pi),
        bad=st.one_of(st.none(), st.sampled_from((math.nan, math.inf, -math.inf))),
    )
    def test_one_speed_rule_for_both_players_property(self, role, nu, ratio, angle, bad):
        # a player's action plays exactly when its speed does not exceed the
        # player's cap: 1 for the pursuer, nu for the evader
        cap = 1.0 if role == "pursuer" else nu
        speed = ratio * cap
        velocity = Vec2(speed * math.cos(angle), speed * math.sin(angle))
        if bad is not None:
            velocity = Vec2(bad, velocity.y)
        parked = Fixed(PursuerAction())
        pursuer, evader = ((Fixed(PursuerAction(velocity)), Fixed(EvaderAction()))
                           if role == "pursuer" else (parked, Fixed(EvaderAction(velocity))))
        cfg = make_config(nu=nu, rho0=2.0, t_f=1.0, n=0)
        if core.exceeds(velocity.norm(), cap):
            with pytest.raises(ValueError, match=f"^{role} speed .* exceeds the cap {cap}$"):
                simulate(cfg, pursuer, evader)
        else:
            assert bad is None
            result = simulate(cfg, pursuer, evader)
            mover = getattr(result, f"{role}_trajectory")
            assert mover.segments[0].velocity == velocity

    def test_event_budget(self, monkeypatch):
        cfg = make_config(rho0=3.0, t_f=3.0, n=0)
        monkeypatch.setattr(engine, "_MAX_EVENTS", 100)
        with pytest.raises(RuntimeError, match="event budget"):
            simulate(cfg, ContinuousPursuer(review_dt=1e-4), RadialEvader())

    @pytest.mark.parametrize("side", ["pursuer", "evader"])
    def test_event_budget_fails_before_the_first_event(self, side, monkeypatch):
        cfg = make_config(t_f=10.0, n=0)
        if side == "pursuer":
            pursuer, evader = ContinuousPursuer(review_dt=1e-9), RadialEvader()
        else:
            pursuer, evader = ArrivalSensingPursuer(), RadialEvader(review_dt=1e-9)
        queries = []
        for strategy in (pursuer, evader):
            monkeypatch.setattr(strategy, "act", queries.append)
        with pytest.raises(RuntimeError, match="event budget 200000 is below the estimated 1e"):
            simulate(cfg, pursuer, evader)
        assert queries == []

    def test_engine_builds_two_vec2_per_event(self, monkeypatch):
        """Positions advance in floats: Vec2 arithmetic back in the loop fails this.

        Both ways a ``Vec2`` is built are counted: its constructor, and
        ``core._new``, through which its arithmetic and ``core``'s helpers
        build theirs and which the engine calls under its own name.  Each is
        charged to the first caller outside ``core``, so ``x_p + v_p * dt``
        written in the engine counts as the engine's.
        """
        built = {"engine": 0, "other": 0}

        def charge():
            frame = sys._getframe(2)
            while frame.f_code.co_filename == core.__file__:
                frame = frame.f_back
            built["engine" if frame.f_code.co_filename == engine.__file__ else "other"] += 1

        new, fast_new = Vec2.__new__, core._new

        def counting_new(cls, x, y):
            charge()
            return new(cls, x, y)

        def counting_fast_new(cls, values):
            if cls is Vec2:
                charge()
            return fast_new(cls, values)

        cfg = make_config(rho0=2.0, t_f=10.0, n=3)
        pursuer, evader = WaitingPursuer(), RadialEvader(review_dt=0.01)
        monkeypatch.setattr(Vec2, "__new__", counting_new)
        monkeypatch.setattr(core, "_new", counting_fast_new)
        monkeypatch.setattr(engine, "_new", counting_fast_new)
        result = simulate(cfg, pursuer, evader)
        monkeypatch.undo()
        events = len(result.pursuer_trajectory.segments)
        assert events > 500
        assert built["other"] > 0  # the count sees strategy-side constructions too
        assert built["engine"] == 2 * events  # one position per player per event

    def test_outcome_json_layout(self):
        cfg = make_config(rho0=0.13, t_f=5.0, n=0)
        out = simulate(cfg, ArrivalSensingPursuer(), RadialEvader()).outcome
        data = out.to_json_dict()
        assert sorted(data) == [
            "capture_time", "captured", "final_distance", "payoff", "sensing_times",
        ]
        assert data["captured"] is True
        assert isinstance(data["sensing_times"], list)
        miss = Outcome(None, 1.0, 0.9, (0.5,)).to_json_dict()
        assert miss["capture_time"] is None and miss["captured"] is False
        assert Outcome(0.0, 0.05, 0.0, ()).captured is True  # caught at t = 0


# Keyword-built twins of the loop's records: each field's type is fixed by
# where it sits, not read from the record, so a misbuilt record differs.
def _vec(v) -> Vec2:
    return Vec2(x=v[0], y=v[1])


def _segment(seg) -> Segment:
    return Segment(t_start=seg[0], t_end=seg[1], x0=_vec(seg[2]), velocity=_vec(seg[3]))


def _trajectory(traj) -> Trajectory:
    return Trajectory(start_pos=_vec(traj[0]), segments=tuple(map(_segment, traj[1])))


def _result(result) -> SimulationResult:
    o = result[0]
    return SimulationResult(
        outcome=Outcome(capture_time=o[0], final_distance=o[1], payoff=o[2], sensing_times=o[3]),
        pursuer_trajectory=_trajectory(result[1]), evader_trajectory=_trajectory(result[2]))


def _action(action):
    """The action rebuilt by keyword, each field in the type its default has."""
    review_at = None if action[-1] is None else float(action[-1])
    if len(action) == 3:
        return PursuerAction(velocity=_vec(action[0]), sense_now=bool(action[1]),
                             review_at=review_at)
    return EvaderAction(velocity=_vec(action[0]), review_at=review_at)


def _info(info):
    if len(info) == 5 and isinstance(info[4], GameConfig):
        return EvaderInfo(time=info[0], own=_vec(info[1]), pursuer=_vec(info[2]), log=info[3],
                          config=info[4])
    return PursuerInfo(time=info[0], own=_vec(info[1]), log=info[2], config=info[3],
                       evader=None if info[4] is None else _vec(info[4]))


def _point(point):
    return engine._BranchPoint(
        t=point[0], x_p=_vec(point[1]), x_e=_vec(point[2]), log=point[3], events=point[4],
        p_action=_action(point[5]), p_segments=tuple(map(_segment, point[6])),
        e_segments=tuple(map(_segment, point[7])))


def _assert_same_record(record, reference):
    """Equal, and of the same type at every level of nesting."""
    assert type(record) is type(reference), (record, reference)
    assert record == reference
    if isinstance(reference, tuple):
        for part, expected in zip(record, reference):
            _assert_same_record(part, expected)


class _Recording:
    """A strategy that answers as the one it wraps and keeps each (info, action)."""

    def __init__(self, inner, seen):
        self.inner, self.seen = inner, seen

    def __getattr__(self, name):  # review_dt and continuous_observation
        return getattr(self.inner, name)

    def act(self, info):
        action = self.inner.act(info)
        self.seen.append((info, action))
        return action


class TestLoopRecords:
    """The loop builds its records without the generated constructors; they must not tell."""

    @settings(max_examples=60)
    @given(
        nu=st.floats(0.2, 0.9),
        rho=st.floats(0.0, 3.0),
        angle=st.floats(0.0, 2.0 * math.pi),
        t_f=st.floats(0.0, 4.0),
        n=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        pursuer=st.sampled_from(("continuous", "prop1", "thm1", "aleem", "scripted")),
        evader=st.sampled_from(("radial", "equilibrium", "scripted")),
        legs=st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0),
                                st.floats(0.0, 2.0 * math.pi)), max_size=3),
        fixes=st.lists(st.floats(0.05, 1.0), max_size=3),
        hand_off=st.booleans(),
    )
    # every branch of each built-in strategy's act: holds, fixes, an empty budget, hand-offs
    @example(nu=0.7, rho=1.0, angle=0.3, t_f=5.0, n=2, seed=1, pursuer="thm1", evader="radial",
             legs=[], fixes=[], hand_off=False)
    @example(nu=0.7, rho=2.0, angle=1.0, t_f=4.0, n=2, seed=2, pursuer="prop1",
             evader="equilibrium", legs=[], fixes=[], hand_off=False)
    @example(nu=0.7, rho=1.5, angle=2.0, t_f=3.0, n=2, seed=3, pursuer="aleem",
             evader="scripted", legs=[], fixes=[], hand_off=False)
    @example(nu=0.7, rho=1.0, angle=4.0, t_f=1.0, n=0, seed=4, pursuer="continuous",
             evader="radial", legs=[], fixes=[], hand_off=False)
    @example(nu=0.7, rho=1.0, angle=5.0, t_f=4.0, n=2, seed=5, pursuer="scripted",
             evader="equilibrium", legs=[(0.5, 1.0, 0.2)], fixes=[0.3, 0.4], hand_off=True)
    @example(nu=0.7, rho=1.0, angle=0.0, t_f=2.0, n=1, seed=6, pursuer="scripted",
             evader="scripted", legs=[(0.5, 0.5, 0.0)], fixes=[0.3], hand_off=False)
    def test_records_match_keyword_built_property(self, nu, rho, angle, t_f, n, seed, pursuer,
                                                  evader, legs, fixes, hand_off):
        cfg = GameConfig(nu=nu, r_cap=0.1, x_p0=Vec2(0.0, 0.0),
                         x_e0=Vec2(rho * math.cos(angle), rho * math.sin(angle)),
                         t_f=t_f, n=n, phi=PayoffSpec("hinge", 0.1), seed=seed)
        if pursuer == "scripted":
            ends = list(itertools.accumulate(d for d, _, _ in legs))
            sense_at = itertools.accumulate(fixes[:n], initial=ends[-1] if ends else 0.0)
            pursuer = ScriptedPursuer(
                [(t, Vec2(speed * math.cos(a), speed * math.sin(a)))
                 for t, (_, speed, a) in zip(ends, legs)],
                list(sense_at)[1:], WaitingPursuer() if hand_off else None)
        else:
            pursuer = build_pursuer(pursuer, cfg)
        if evader == "scripted":
            evader = random_piecewise_evader(cfg, trial_rng(seed, 0))
        else:
            evader = build_evader(evader, cfg)

        seen, results, points = [], [], []
        results.append(simulate(cfg, _Recording(pursuer, seen), _Recording(evader, seen)))
        real_simulate = engine.simulate

        def recording_simulate(config, pursuer, evader, *, _fork=None):
            result = real_simulate(config, pursuer, _Recording(evader, seen), _fork=_fork)
            results.append(result)
            points.extend(_fork[1])
            return result

        with pytest.MonkeyPatch.context() as patch:  # forked games, as exact expectations play
            patch.setattr(engine, "simulate", recording_simulate)
            engine._leaves(cfg, _Recording(pursuer, seen))
        assert len(results) >= 2
        for result in results:
            _assert_same_record(result, _result(result))
        for point in points:
            _assert_same_record(point, _point(point))
        for info, action in seen:
            _assert_same_record(info, _info(info))
            _assert_same_record(action, _action(action))


class _SenseEachReview:
    """Holds still and asks for a fix at each of its review times dt, 2 dt, ..."""

    def __init__(self, dt):
        self.dt = self.due = dt
        self.requests = 0

    def act(self, info):
        if info.time >= self.due:
            self.due = info.time + self.dt
            self.requests += 1
            return PursuerAction(sense_now=True)
        return PursuerAction(review_at=self.due)


def _product_reference(config, pursuer):
    """Longhand enumeration: one simulation per theta tuple, lexicographic."""
    return tuple(
        simulate(config, pursuer, EquilibriumEvader(thetas)).outcome.payoff
        for thetas in itertools.product((1, -1), repeat=config.n + 1)
    )


def _result_or_error(fn, *args):
    """The value of fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is on the exception type
        return type(exc)


def _assert_matches_product_reference(config, pursuer):
    """Branch tuple and expectation equal (==) the longhand reference's."""
    expected = _result_or_error(_product_reference, config, pursuer)
    assert _result_or_error(enumerate_branch_payoffs, config, pursuer) == expected
    if not isinstance(expected, type):
        expected = math.fsum(expected) / len(expected)
    assert _result_or_error(exact_expected_payoff, config, pursuer) == expected


class _CountingPursuer:
    """Pure pursuer that counts its queries: it answers as the one it wraps."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def act(self, info):
        self.calls += 1
        return self.inner.act(info)


def _count_simulate_calls(monkeypatch) -> list:
    """Route engine.simulate through a counter; returns the one-cell count."""
    calls = [0]
    real_simulate = engine.simulate

    def counting_simulate(*args, **kwargs):
        calls[0] += 1
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(engine, "simulate", counting_simulate)
    return calls


# One member of every pursuer family the evader suite enumerates against,
# built for a config; the over-cap script (a run to (4, 4) in unit time)
# raises on every branch.
_PURSUER_FAMILIES = {
    "thm1": lambda cfg: WaitingPursuer(),
    "prop1": lambda cfg: ArrivalSensingPursuer(),
    "aleem": lambda cfg: SelfTriggeredPursuer(),
    "endpoint": lambda cfg: _endpoint_run(cfg, 1.0, 0.3),
    "endpoint_out_of_reach": lambda cfg: ScriptedPursuer([(1.0, Vec2(4.0, 4.0))]),
    "first_leg": lambda cfg: _first_leg(cfg, 0.2, 0.8),
    "early_wait": lambda cfg: _early_sense(cfg, 0.5),
}


def _built(make, config, *args):
    """``make(config, *args)``, or None where that endpoint run is out of reach."""
    try:
        return make(config, *args)
    except ValueError as exc:
        assert "beyond reach" in str(exc)
        return None


class TestExpectations:
    def test_branch_enumeration_order_and_symmetry(self):
        cfg = make_config(n=1, t_f=4.0)
        payoffs = enumerate_branch_payoffs(cfg, WaitingPursuer())
        assert len(payoffs) == 4
        # the layout is mirror-symmetric in y, so flipping every orientation
        # cannot change the payoff: (+,+) matches (-,-), (+,-) matches (-,+)
        assert payoffs[0] == pytest.approx(payoffs[3], rel=1e-12)
        assert payoffs[1] == pytest.approx(payoffs[2], rel=1e-12)

    def test_exact_expectation_matches_bound(self):
        cfg = make_config(n=1, t_f=4.0)
        bound = value_bound(1.0, 4.0, 1, cfg.phi, cfg.nu)
        assert bound.case_tag == "wait_region"
        assert exact_expected_payoff(cfg, WaitingPursuer()) == pytest.approx(
            bound.value, rel=1e-10
        )

    def test_enumeration_cap(self, monkeypatch):
        # the full branch tuple stays capped at 2^20 entries
        with pytest.raises(EnumerationCapError, match=r"2\^26 branches"):
            enumerate_branch_payoffs(make_config(n=25), WaitingPursuer())
        # the expectation is capped on simulated leaves: the n = 4 wait-region
        # game has 32 of them, so a cap of 2^3 stops it after 8 games
        cfg = make_config(n=4)
        calls = _count_simulate_calls(monkeypatch)
        monkeypatch.setattr(engine, "_ENUMERATION_CAP", 3)
        with pytest.raises(EnumerationCapError, match="8 leaves simulated"):
            exact_expected_payoff(cfg, WaitingPursuer())
        assert calls[0] == 8
        monkeypatch.setattr(engine, "_ENUMERATION_CAP", 5)
        exact_expected_payoff(cfg, WaitingPursuer())

    def test_leaf_expectation_beyond_the_tuple_cap(self, monkeypatch):
        # never senses, so two leaves at depth 1 whatever the budget
        cfg = make_config(n=1)
        small = exact_expected_payoff(cfg, _endpoint_run(cfg, 1.0, 0.3))
        calls = _count_simulate_calls(monkeypatch)
        for n in (20, 30):
            calls[0] = 0
            cfg = make_config(n=n)
            assert exact_expected_payoff(cfg, _endpoint_run(cfg, 1.0, 0.3)) == small
            assert calls[0] == 2

    def test_leaf_expectation_at_a_budget_past_any_tuple(self, monkeypatch):
        # 2^63 or more flips fit no tuple; a never-sensing game reads only the first
        budgets = []
        real_act = EquilibriumEvader.act

        def spying_act(evader, info):
            budgets.append(info.log.budget_remaining)
            return real_act(evader, info)

        monkeypatch.setattr(EquilibriumEvader, "act", spying_act)
        expectations = []
        for n in (10**20, 50):
            cfg = make_config(n=n)
            budgets.clear()
            expectations.append(exact_expected_payoff(cfg, _endpoint_run(cfg, 1.0, 0.3)))
            assert budgets and min(budgets) >= 1  # every query dodges on a read flip
        assert expectations[0] == expectations[1]

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("t_f", (2.0, 5.0))
    @pytest.mark.parametrize("family", sorted(_PURSUER_FAMILIES))
    def test_tree_matches_product_reference(self, family, t_f, n):
        cfg = make_config(n=n, t_f=t_f)
        _assert_matches_product_reference(cfg, _PURSUER_FAMILIES[family](cfg))

    @given(
        nu=st.floats(0.2, 0.9),
        rho=st.floats(0.05, 3.0),
        angle=st.floats(0.0, 2.0 * math.pi),
        t_f=st.floats(0.0, 6.0),
        n=st.integers(0, 4),
        deviation=st.one_of(
            st.tuples(st.sampled_from([lambda cfg: WaitingPursuer(),
                                       lambda cfg: ArrivalSensingPursuer(),
                                       lambda cfg: SelfTriggeredPursuer()])),
            st.tuples(st.just(_endpoint_run), st.floats(-1.0, 6.0), st.floats(-3.0, 3.0)),
            st.tuples(st.just(_first_leg), st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
            st.tuples(st.just(_early_sense), st.floats(0.01, 5.0)),
        ),
    )
    def test_tree_matches_product_property(self, nu, rho, angle, t_f, n, deviation):
        cfg = GameConfig(
            nu=nu, r_cap=0.1, x_p0=Vec2(0.0, 0.0),
            x_e0=Vec2(rho * math.cos(angle), rho * math.sin(angle)),
            t_f=t_f, n=n, phi=PayoffSpec("hinge", 0.1),
        )
        builder, *args = deviation
        pursuer = _built(builder, cfg, *args)
        if pursuer is not None:
            _assert_matches_product_reference(cfg, pursuer)

    def test_enumeration_simulates_only_read_prefixes(self, monkeypatch):
        calls = _count_simulate_calls(monkeypatch)
        cfg = make_config(n=4)
        assert value_bound(1.0, 5.0, 4, cfg.phi, cfg.nu).case_tag == "wait_region"
        # never senses, so only thetas[0] is read: one game per orientation
        payoffs = enumerate_branch_payoffs(cfg, _endpoint_run(cfg, 1.0, 0.3))
        assert len(payoffs) == 2**5
        assert calls[0] == 2
        calls[0] = 0
        payoffs = enumerate_branch_payoffs(cfg, WaitingPursuer())
        assert len(payoffs) == 2**5
        assert calls[0] <= 2**5

    def test_resumed_branch_skips_the_pursuer_queries(self, monkeypatch):
        # one event per game: the -1 branch resumes at it with the action the
        # +1 game's pursuer query gave, so one query serves both games
        calls = _count_simulate_calls(monkeypatch)
        cfg = make_config(n=4)
        pursuer = _CountingPursuer(_endpoint_run(cfg, 1.0, 0.3))
        exact_expected_payoff(cfg, pursuer)
        assert pursuer.calls == 1
        assert calls[0] == 2

    @pytest.mark.parametrize("n", (0, 3))
    @pytest.mark.parametrize("t_f, rho0", [(0.0, 1.0), (5.0, 0.1)],
                             ids=["no_time", "caught_at_t0"])
    def test_game_without_events_is_one_leaf(self, t_f, rho0, n, monkeypatch):
        # the evader is never queried, so no coin is read and nothing branches
        cfg = make_config(rho0=rho0, t_f=t_f, n=n)
        game = simulate(cfg, WaitingPursuer(), EquilibriumEvader((1,) * (n + 1)))
        assert not game.pursuer_trajectory.segments
        calls = _count_simulate_calls(monkeypatch)
        assert exact_expected_payoff(cfg, WaitingPursuer()) == game.outcome.payoff
        assert calls[0] == 1
        payoffs = enumerate_branch_payoffs(cfg, WaitingPursuer())
        assert payoffs == (game.outcome.payoff,) * 2 ** (n + 1)

    @given(
        family=st.sampled_from(sorted(_PURSUER_FAMILIES)),
        nu=st.floats(0.2, 0.9),
        rho=st.floats(0.0, 3.0),
        angle=st.floats(0.0, 2.0 * math.pi),
        t_f=st.floats(0.0, 6.0),
        n=st.integers(0, 4),
    )
    @example(family="thm1", nu=0.7, rho=1.0, angle=0.0, t_f=5.0, n=0)
    @example(family="prop1", nu=0.7, rho=0.05, angle=1.0, t_f=5.0, n=2)  # caught at t = 0
    def test_resumed_leaves_equal_replays_property(self, family, nu, rho, angle, t_f, n):
        cfg = GameConfig(
            nu=nu, r_cap=0.1, x_p0=Vec2(0.0, 0.0),
            x_e0=Vec2(rho * math.cos(angle), rho * math.sin(angle)),
            t_f=t_f, n=n, phi=PayoffSpec("hinge", 0.1),
        )
        pursuer = _built(_PURSUER_FAMILIES[family], cfg)
        if pursuer is None:
            return  # the run cannot be built, so no game is played
        real_simulate = engine.simulate
        games = []  # (played leaf, its replay from t = 0, whether it resumed)

        def replaying_simulate(config, pursuer, evader, *args, _fork=None, **kwargs):
            result = real_simulate(config, pursuer, evader, *args, _fork=_fork, **kwargs)
            replay = real_simulate(config, pursuer, EquilibriumEvader(evader.thetas))
            games.append((result, replay, _fork[0] is not None))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "simulate", replaying_simulate)
            _result_or_error(exact_expected_payoff, cfg, pursuer)
        for result, replay, _ in games:
            assert result == replay
        if games:
            # every game after the first resumes, unless the first ended at t = 0
            first_moved = bool(games[0][0].pursuer_trajectory.segments)
            resumed = [resumed for _, _, resumed in games]
            assert resumed == [False] + [first_moved] * (len(games) - 1)

    def test_mc_agrees_with_exact(self):
        cfg = make_config(n=1, t_f=4.0)
        exact = exact_expected_payoff(cfg, ArrivalSensingPursuer())
        payoffs = enumerate_branch_payoffs(cfg, ArrivalSensingPursuer())
        spread = max(payoffs) - min(payoffs)
        estimate = mc_expected_payoff(cfg, ArrivalSensingPursuer(), 200_000, seed=5)
        # 4-sigma band for a multinomial mean over equally likely branches
        sigma = spread / math.sqrt(200_000)
        assert abs(estimate - exact) <= 4.0 * sigma + 1e-12
        assert estimate == mc_expected_payoff(cfg, ArrivalSensingPursuer(), 200_000, seed=5)
        with pytest.raises(ValueError):
            mc_expected_payoff(cfg, ArrivalSensingPursuer(), 0, seed=5)

    def test_sampled_expectation_plumbing(self):
        # the wait pursuer is branch-indifferent here, so the sampled mean
        # must land on the exact mean without statistical slack
        cfg = make_config(n=1, t_f=4.0)
        exact = exact_expected_payoff(cfg, WaitingPursuer())
        sampled = sampled_expected_payoff(cfg, WaitingPursuer(), 50, seed=0)
        assert sampled == pytest.approx(exact, rel=1e-10)


# Every kind of field a package CSV holds: fmt_g numbers (signed zeros, infinities
# and NaN among them), case tags, flags, small integers and empty cells.
TABLE_FIELDS = st.one_of(
    st.floats(allow_subnormal=True).map(fmt_g),
    st.sampled_from([fmt_g(x) for x in (0.0, -0.0, math.inf, -math.inf, math.nan)]),
    st.sampled_from(CASE_TAGS + ("true", "false", "")),
    st.integers(0, 20).map(str),
)


class TestTrajectoryCsv:
    def test_layout(self, tmp_path):
        cfg = make_config(rho0=2.0, t_f=1.5, n=1)
        result = simulate(cfg, ArrivalSensingPursuer(), RadialEvader(review_dt=0.5))
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, result)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "player,t_start,t_end,x0,y0,vx,vy"
        rows = [line.split(",") for line in lines[1:]]
        n_p = len(result.pursuer_trajectory.segments)
        n_e = len(result.evader_trajectory.segments)
        assert len(rows) == n_p + n_e
        assert all(r[0] == "pursuer" for r in rows[:n_p])
        assert all(r[0] == "evader" for r in rows[n_p:])
        assert rows[0][1] == "0"
        # numeric cells parse back to floats
        for row in rows:
            for cell in row[1:]:
                float(cell)

    @settings(max_examples=150)
    @given(st.lists(st.tuples(*[st.one_of(
        st.floats(allow_subnormal=True),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308, 1e308,
                         math.inf, -math.inf]),
    )] * 6), max_size=6), st.integers(0, 6),
        st.integers(2, 7).flatmap(lambda width: st.lists(
            st.lists(TABLE_FIELDS, min_size=width, max_size=width), min_size=1, max_size=7)))
    def test_rows_match_the_csv_module_property(self, tmp_path_factory, rows, split, table):
        """Byte for byte what ``csv.writer`` writes from the same fields.

        Both the trajectory CSV and ``core.write_csv`` on a table drawn from
        the package's field alphabet (first row as the header) are checked.
        """
        segments = [Segment(t0, t1, Vec2(x, y), Vec2(vx, vy)) for t0, t1, x, y, vx, vy in rows]
        split = min(split, len(segments))
        result = SimulationResult(
            Outcome(None, 1.0, 0.9, ()),
            Trajectory(Vec2(0.0, 0.0), tuple(segments[:split])),
            Trajectory(Vec2(1.0, 0.0), tuple(segments[split:])),
        )
        path = tmp_path_factory.mktemp("csv") / "run.csv"
        write_trajectory_csv(path, result)
        with open(path.with_suffix(".longhand"), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["player", "t_start", "t_end", "x0", "y0", "vx", "vy"])
            for player, trajectory in (("pursuer", result.pursuer_trajectory),
                                       ("evader", result.evader_trajectory)):
                for seg in trajectory.segments:
                    writer.writerow([player, fmt_g(seg.t_start), fmt_g(seg.t_end),
                                     fmt_g(seg.x0.x), fmt_g(seg.x0.y),
                                     fmt_g(seg.velocity.x), fmt_g(seg.velocity.y)])
        assert path.read_bytes() == path.with_suffix(".longhand").read_bytes()

        header, *body = table
        path = tmp_path_factory.mktemp("table") / "table.csv"
        assert core.write_csv(path, header, body) == len(body)
        with open(path.with_suffix(".longhand"), "w", newline="") as handle:
            csv.writer(handle).writerows(table)
        assert path.read_bytes() == path.with_suffix(".longhand").read_bytes()
