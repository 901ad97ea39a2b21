"""Tests for strategy policies, the sensing log, and strategy construction."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intermittent_pursuit import (
    CHECK_TOL,
    ROUND_TOL,
    ArrivalSensingPursuer,
    BudgetViolationError,
    ContinuousPursuer,
    DegenerateDirectionError,
    EquilibriumEvader,
    EvaderAction,
    EvaderInfo,
    EVADER_NAMES,
    GameConfig,
    PayoffSpec,
    PursuerAction,
    PursuerInfo,
    PURSUER_NAMES,
    RadialEvader,
    ScriptedEvader,
    ScriptedPursuer,
    SelfTriggeredPursuer,
    SensingLog,
    Vec2,
    WaitingPursuer,
    build_evader,
    build_pursuer,
    line_of_sight,
    perpendicular,
    reach_factor,
    sensing_delay,
    simulate,
    theta_stream,
    trial_rng,
    trigger_coefficient,
    value_bound,
)
from intermittent_pursuit import strategies
from conftest import make_config


def pursuer_info(config, t=0.0, own=None, log=None, evader=None):
    if log is None:
        log = SensingLog.initial(config)
    if own is None:
        own = config.x_p0
    return PursuerInfo(time=t, own=own, log=log, config=config, evader=evader)


def evader_info(config, t=0.0, own=None, pursuer=None, log=None):
    if log is None:
        log = SensingLog.initial(config)
    if own is None:
        own = config.x_e0
    if pursuer is None:
        pursuer = config.x_p0
    return EvaderInfo(time=t, own=own, pursuer=pursuer, log=log, config=config)


class TestSensingLog:
    def test_initial(self):
        cfg = make_config(n=3)
        log = SensingLog.initial(cfg)
        assert log.times == (0.0,)
        assert log.sensed_positions == (cfg.x_e0,)
        assert log.pursuer_positions == (cfg.x_p0,)
        assert log.budget_remaining == 3

    def test_record_decrements_budget(self):
        cfg = make_config(n=1)
        log = SensingLog.initial(cfg)
        log2 = log.record(1.5, Vec2(2.0, 0.0), Vec2(1.0, 0.0))
        assert log2.budget_remaining == 0
        assert log2.times == (0.0, 1.5)
        # original is untouched
        assert log.budget_remaining == 1
        with pytest.raises(BudgetViolationError):
            log2.record(2.0, Vec2(3.0, 0.0), Vec2(2.0, 0.0))

    def test_anchor(self):
        cfg = make_config(n=2)
        log = SensingLog.initial(cfg).record(1.0, Vec2(2.0, 1.0), Vec2(2.0, 0.0))
        t, evader, pursuer, rho = log.anchor()
        assert t == 1.0
        assert evader == Vec2(2.0, 1.0)
        assert pursuer == Vec2(2.0, 0.0)
        assert rho == 1.0

    @pytest.mark.parametrize("t", [1.0, 0.5])
    def test_record_at_the_same_instant_or_earlier(self, t):
        log = SensingLog.initial(make_config(n=3)).record(1.0, Vec2(2.0, 0.0), Vec2(1.0, 0.0))
        with pytest.raises(ValueError, match="^fix times must be strictly increasing$"):
            log.record(t, Vec2(2.0, 0.0), Vec2(1.0, 0.0))

    def test_record_at_budget_zero(self):
        log = SensingLog.initial(make_config(n=0))
        with pytest.raises(BudgetViolationError):
            log.record(1.0, Vec2(2.0, 0.0), Vec2(1.0, 0.0))

    def test_record_chain_equals_direct_construction(self):
        cfg = make_config(n=3)
        fixes = [(0.5, Vec2(1.2, 0.1), Vec2(0.5, 0.0)), (1.25, Vec2(1.4, -0.2), Vec2(1.1, 0.0))]
        log = SensingLog.initial(cfg)
        for fix in fixes:
            log = log.record(*fix)
        direct = SensingLog((0.0, 0.5, 1.25), (cfg.x_e0, fixes[0][1], fixes[1][1]),
                            (cfg.x_p0, fixes[0][2], fixes[1][2]), 1)
        assert type(log) is SensingLog and log == direct
        assert SensingLog.initial(cfg) == SensingLog((0.0,), (cfg.x_e0,), (cfg.x_p0,), 3)

    def test_frozen_value(self):
        log = SensingLog.initial(make_config(n=2)).record(1.0, Vec2(2.0, 0.0), Vec2(1.0, 0.0))
        copy = pickle.loads(pickle.dumps(log))
        assert type(copy) is SensingLog and copy == log and hash(copy) == hash(log)
        assert repr(log).startswith("SensingLog(times=(0.0, 1.0), ")
        with pytest.raises(AttributeError):
            log.budget_remaining = 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SensingLog((1.0,), (Vec2(0, 0),), (Vec2(0, 0),), 0)  # missing free fix
        with pytest.raises(ValueError):
            SensingLog((0.0, 0.0), (Vec2(0, 0),) * 2, (Vec2(0, 0),) * 2, 0)
        with pytest.raises(ValueError):
            SensingLog((0.0,), (Vec2(0, 0),), (), 0)
        with pytest.raises(ValueError):
            SensingLog((0.0,), (Vec2(0, 0),), (Vec2(0, 0),), -1)


class TestContinuousPursuer:
    def test_requires_live_position(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            ContinuousPursuer().act(pursuer_info(cfg))

    def test_heads_at_evader(self):
        cfg = make_config()
        action = ContinuousPursuer(review_dt=0.5).act(
            pursuer_info(cfg, t=1.0, evader=Vec2(3.0, 0.0))
        )
        assert action.velocity == Vec2(1.0, 0.0)
        assert not action.sense_now
        assert action.review_at == 1.5


class TestArrivalSensingPursuer:
    def test_dashes_to_fix_and_reviews_on_arrival(self):
        cfg = make_config(rho0=2.0, n=2)
        action = ArrivalSensingPursuer().act(pursuer_info(cfg))
        assert action.velocity == Vec2(1.0, 0.0)
        assert action.review_at == pytest.approx(2.0, abs=1e-12)

    def test_senses_on_arrival(self):
        cfg = make_config(rho0=2.0, n=2)
        info = pursuer_info(cfg, t=2.0, own=cfg.x_e0)
        action = ArrivalSensingPursuer().act(info)
        assert action.sense_now
        assert action.velocity == Vec2(0.0, 0.0)

    def test_parks_when_budget_gone(self):
        cfg = make_config(rho0=2.0, n=0)
        info = pursuer_info(cfg, t=2.0, own=cfg.x_e0)
        action = ArrivalSensingPursuer().act(info)
        assert not action.sense_now
        assert action.velocity == Vec2(0.0, 0.0)

    def test_endgame_blind_dash(self):
        # nu * rho <= r_cap: no further sensing needed, run the bearing down
        cfg = make_config(rho0=0.12, n=3)
        action = ArrivalSensingPursuer().act(pursuer_info(cfg))
        assert action.velocity == Vec2(1.0, 0.0)
        assert not action.sense_now
        assert action.review_at is None

    def test_pure(self):
        cfg = make_config(rho0=2.0, n=2)
        info = pursuer_info(cfg, t=0.7, own=Vec2(0.7, 0.0))
        strategy = ArrivalSensingPursuer()
        assert strategy.act(info) == strategy.act(info)


class TestWaitingPursuer:
    def test_walks_then_parks_then_senses(self):
        # rho=1, tau=5, ell=2: comfortably inside the wait region
        cfg = make_config()
        strategy = WaitingPursuer()

        walk = strategy.act(pursuer_info(cfg))
        assert walk.velocity == Vec2(1.0, 0.0)
        assert walk.review_at == pytest.approx(1.0, abs=1e-12)

        t_sense = (1.0 - cfg.nu) * cfg.t_f / (1.0 - cfg.nu**3)
        at_fix = strategy.act(pursuer_info(cfg, t=1.0, own=cfg.x_e0))
        assert at_fix.velocity == Vec2(0.0, 0.0)
        assert at_fix.review_at == pytest.approx(t_sense, rel=1e-12)

        due = strategy.act(pursuer_info(cfg, t=t_sense, own=cfg.x_e0))
        assert due.sense_now

    def test_zero_budget_parks_to_horizon(self):
        cfg = make_config(rho0=1.0, t_f=2.0, n=0)
        strategy = WaitingPursuer()
        at_fix = strategy.act(pursuer_info(cfg, t=1.0, own=cfg.x_e0))
        assert at_fix.velocity == Vec2(0.0, 0.0)
        later = strategy.act(pursuer_info(cfg, t=1.9, own=cfg.x_e0))
        assert later.velocity == Vec2(0.0, 0.0) and not later.sense_now

    def test_chases_when_time_is_short(self):
        cfg = make_config(rho0=2.0, t_f=1.0, n=2)
        action = WaitingPursuer().act(pursuer_info(cfg))
        chase = ArrivalSensingPursuer().act(pursuer_info(cfg))
        assert action == chase

    def test_chases_when_budget_suffices(self):
        # nu^(ell+1) * rho <= r_cap: waiting is pointless, capture is bookable
        cfg = make_config(rho0=1.0, t_f=50.0, n=6)
        action = WaitingPursuer().act(pursuer_info(cfg))
        assert action.velocity == Vec2(1.0, 0.0)
        assert action.review_at == pytest.approx(1.0, abs=1e-12)


@st.composite
def _parked_states(draw):
    """(nu, r_cap, ell, anchor_t, rho, tau) on, near and away from both edges of the hold rule.

    r_cap is nu^(ell+1)*rho times a drawn factor, or times 1 so that the
    capture edge is met with equality; tau is drawn, or set a few
    ``ROUND_TOL`` bands either side of reach_factor(nu, ell)*rho.
    """
    nu = draw(st.floats(0.05, 0.95))
    ell = draw(st.integers(1, 6))
    rho = draw(st.floats(0.01, 5.0))
    r_cap = nu ** (ell + 1) * rho * draw(st.one_of(st.just(1.0), st.floats(0.1, 2.0)))
    edge = reach_factor(nu, ell) * rho
    band = ROUND_TOL * max(1.0, edge)
    tau = draw(st.one_of(st.floats(0.0, 3.0 * edge),
                         st.integers(-4, 4).map(lambda k: edge + k * band)))
    anchor_t = draw(st.floats(0.5, 3.0))
    return nu, r_cap, ell, anchor_t, rho, tau


@settings(max_examples=300)
@given(_parked_states())
def test_waiting_pursuer_holds_exactly_in_the_wait_region_property(state):
    """With budget left, the pursuer parked at its fix holds iff the bound is wait_region.

    It is queried at the fix instant, so that a hold of any length shows as
    a review time, which must then be the prescribed one exactly.
    """
    nu, r_cap, ell, anchor_t, rho, tau = state
    cfg = make_config(nu=nu, r_cap=r_cap, rho0=rho, t_f=anchor_t + tau, n=ell + 1)
    log = SensingLog.initial(cfg).record(anchor_t, cfg.x_e0, cfg.x_p0)
    tau = cfg.t_f - anchor_t  # as the pursuer reads it
    action = WaitingPursuer().act(pursuer_info(cfg, t=anchor_t, own=cfg.x_e0, log=log))
    holds = action.velocity == Vec2(0.0, 0.0) and action.review_at is not None
    bound = value_bound(rho, tau, ell, cfg.phi, nu)
    assert holds == (bound.case_tag == "wait_region"), (bound, action)
    if holds:
        assert action.review_at == anchor_t + sensing_delay(nu, ell, tau)


class TestSelfTriggeredPursuer:
    def test_timer_scales_with_separation(self):
        cfg = make_config(rho0=2.0, n=5)
        action = SelfTriggeredPursuer().act(pursuer_info(cfg))
        assert action.velocity == Vec2(1.0, 0.0)
        expected = trigger_coefficient(cfg.nu) * 2.0
        assert action.review_at == pytest.approx(expected, rel=1e-12)

    def test_senses_at_trigger_time(self):
        cfg = make_config(rho0=2.0, n=5)
        t_trig = trigger_coefficient(cfg.nu) * 2.0
        action = SelfTriggeredPursuer().act(
            pursuer_info(cfg, t=t_trig, own=Vec2(t_trig, 0.0))
        )
        assert action.sense_now
        assert action.velocity == Vec2(1.0, 0.0)  # keeps driving while the fix arrives

    def test_budget_exhausted_keeps_bearing(self):
        cfg = make_config(rho0=2.0, n=0)
        action = SelfTriggeredPursuer().act(pursuer_info(cfg, t=0.3, own=Vec2(0.3, 0.0)))
        assert action.velocity == Vec2(1.0, 0.0)
        assert not action.sense_now
        assert action.review_at is None


class TestEvaders:
    def test_radial_flees_at_top_speed(self):
        cfg = make_config()
        action = RadialEvader(review_dt=0.25).act(evader_info(cfg, t=1.0))
        assert action.velocity == Vec2(cfg.nu, 0.0)
        assert action.review_at == 1.25

    def test_equilibrium_dodges_perpendicular(self):
        cfg = make_config(n=2)
        action = EquilibriumEvader((1, -1, 1)).act(evader_info(cfg))
        assert action.velocity.x == pytest.approx(0.0, abs=1e-15)
        assert abs(action.velocity.y) == pytest.approx(cfg.nu, abs=1e-15)
        assert action.velocity.y > 0  # theta[0] = +1 is the counterclockwise side

    def test_equilibrium_terminal_interval_is_radial(self):
        # budget exhausted and tau <= rho: flee along the anchor bearing
        cfg = make_config(rho0=2.0, t_f=1.5, n=0)
        action = EquilibriumEvader(()).act(evader_info(cfg))
        assert action.velocity == Vec2(cfg.nu, 0.0)

    def test_equilibrium_stream_exhaustion(self):
        cfg = make_config(n=2)
        with pytest.raises(ValueError, match="exhausted"):
            EquilibriumEvader(()).act(evader_info(cfg))
        with pytest.raises(ValueError):
            EquilibriumEvader((1, 0, -1))
        with pytest.raises(ValueError, match="integers"):
            EquilibriumEvader((1, True))  # bool is not int here, as for GameConfig.n

    @staticmethod
    def longhand_act(evader, info):
        """The equilibrium evader's rule written with the vector helpers."""
        anchor_t, anchor_e, anchor_p, rho = info.log.anchor()
        cfg = info.config
        tau = cfg.t_f - anchor_t
        ell = info.log.budget_remaining
        bearing = line_of_sight(anchor_p, anchor_e)
        if (ell == 0 and tau <= rho) or (ell >= 1 and tau < rho):
            return EvaderAction(bearing * cfg.nu)
        theta = evader.thetas[len(info.log.times) - 1]
        return EvaderAction(perpendicular(bearing, theta) * cfg.nu)

    # coordinates up to 1e-307 reach subnormal separations, where 1/rho overflows
    _coord = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-307, 1e-307))

    @settings(max_examples=300)
    @given(
        nu=st.floats(0.05, 0.95),
        p=st.tuples(_coord, _coord),
        e=st.tuples(_coord, _coord),
        anchor_t=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        slack=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
        ell=st.integers(0, 3),
        thetas=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
        coincident=st.booleans(),
    )
    @example(nu=0.7, p=(0.0, 0.0), e=(1.0, 0.0), anchor_t=1.0, slack=0.0, ell=0,
             thetas=(1, -1), coincident=False)  # tau == rho, no budget: flee
    @example(nu=0.7, p=(0.0, 0.0), e=(1.0, 0.0), anchor_t=1.0, slack=0.0, ell=1,
             thetas=(1, -1), coincident=False)  # tau == rho with budget: dodge
    @example(nu=0.7, p=(0.0, 0.0), e=(5e-324, 0.0), anchor_t=0.0, slack=1.0, ell=1,
             thetas=(1, -1), coincident=False)  # 1/rho overflows: dodge
    @example(nu=0.7, p=(0.0, 0.0), e=(3e-309, 4e-309), anchor_t=0.0, slack=-1.0, ell=0,
             thetas=(1, -1), coincident=False)  # 1/rho overflows: flee
    def test_equilibrium_act_matches_longhand_property(self, nu, p, e, anchor_t, slack, ell,
                                                       thetas, coincident):
        x_p, x_e = Vec2(*p), Vec2(*p) if coincident else Vec2(*e)
        rho = x_p.dist(x_e)
        t_f = max(anchor_t + rho + slack, anchor_t)  # slack 0: tau == rho, up to rounding
        cfg = GameConfig(nu=nu, r_cap=0.1, x_p0=x_p, x_e0=x_e, t_f=t_f, n=ell + 1,
                         phi=PayoffSpec("hinge", 0.1))
        times = (0.0, anchor_t) if anchor_t > 0.0 else (0.0,)
        log = SensingLog(times, (x_e,) * len(times), (x_p,) * len(times), ell)
        info = evader_info(cfg, t=anchor_t, log=log)
        evader = EquilibriumEvader(thetas)
        if rho == 0.0:
            with pytest.raises(DegenerateDirectionError, match="coincident"):
                evader.act(info)
            with pytest.raises(DegenerateDirectionError, match="coincident"):
                self.longhand_act(evader, info)
            return
        fast, slow = evader.act(info), self.longhand_act(evader, info)
        assert fast == slow
        assert repr(fast) == repr(slow)  # bit for bit, signed zeros too
        # a unit bearing at every separation, also where 1/rho overflows
        speed = fast.velocity.norm()
        assert math.isfinite(speed) and abs(speed - nu) <= CHECK_TOL * nu

    def test_scripted_replay_and_tail(self):
        cfg = make_config()
        legs = [(1.0, Vec2(0.0, 0.5)), (2.0, Vec2(0.5, 0.0))]
        strategy = ScriptedEvader(legs)
        assert strategy.act(evader_info(cfg, t=0.0)).velocity == Vec2(0.0, 0.5)
        assert strategy.act(evader_info(cfg, t=0.0)).review_at == 1.0
        assert strategy.act(evader_info(cfg, t=1.5)).velocity == Vec2(0.5, 0.0)
        assert strategy.act(evader_info(cfg, t=3.0)).velocity == Vec2(0.0, 0.0)

    def test_scripted_validation(self):
        with pytest.raises(ValueError):
            ScriptedEvader([(1.0, Vec2(0, 0)), (1.0, Vec2(0, 0))])  # not increasing
        # a script meets its cap only in play: the engine checks each action
        cfg = make_config(nu=0.3)
        fast = ScriptedEvader([(1.0, Vec2(0.5, 0.0))])
        with pytest.raises(ValueError, match="exceeds"):
            simulate(cfg, WaitingPursuer(), fast)


class TestScriptedPursuer:
    def test_legs_then_fixes_then_hand_off(self):
        cfg = make_config()  # n = 2
        legs = [(1.0, Vec2(0.0, 0.5)), (2.0, Vec2(0.5, 0.0))]
        script = ScriptedPursuer(legs, (3.0, 4.0), WaitingPursuer())
        assert script.act(pursuer_info(cfg, t=0.0)) == PursuerAction(Vec2(0.0, 0.5), review_at=1.0)
        assert script.act(pursuer_info(cfg, t=1.0)) == PursuerAction(Vec2(0.5, 0.0), review_at=2.0)
        # legs played: park until fix k is due at sense_at[k], then take it
        log = SensingLog.initial(cfg)
        assert script.act(pursuer_info(cfg, t=2.0, log=log)) == PursuerAction(review_at=3.0)
        assert script.act(pursuer_info(cfg, t=3.0, log=log)) == PursuerAction(sense_now=True)
        log = log.record(3.0, cfg.x_e0, Vec2(1.0, 0.5))
        assert script.act(pursuer_info(cfg, t=3.0, log=log)) == PursuerAction(review_at=4.0)
        assert script.act(pursuer_info(cfg, t=4.0, log=log)).sense_now
        # every listed fix taken: the hand-off answers, for the same info
        log = log.record(4.0, cfg.x_e0, Vec2(1.0, 0.5))
        info = pursuer_info(cfg, t=4.0, own=Vec2(1.0, 0.5), log=log)
        assert script.act(info) == WaitingPursuer().act(info)

    def test_without_a_hand_off_it_parks(self):
        cfg = make_config(n=0)
        script = ScriptedPursuer([(1.0, Vec2(0.0, 1.0))])
        assert script.act(pursuer_info(cfg, t=1.0)) == PursuerAction()
        assert ScriptedPursuer().act(pursuer_info(cfg)) == PursuerAction()
        result = simulate(cfg, script, ScriptedEvader(()))
        assert result.outcome.sensing_times == ()
        assert result.pursuer_trajectory.end_position == Vec2(0.0, 1.0)

    def test_leg_validation(self):
        # the same check as the evader script's: finite, positive, increasing
        for legs in ([(0.0, Vec2(0, 0))], [(1.0, Vec2(0, 0)), (1.0, Vec2(0, 0))],
                     [(math.inf, Vec2(0, 0))], [(math.nan, Vec2(0, 0))]):
            for script in (ScriptedPursuer, ScriptedEvader):
                with pytest.raises(ValueError, match="positive and increasing"):
                    script(legs)
        with pytest.raises(ValueError, match="must be a number"):
            ScriptedPursuer([("1", Vec2(0, 0))])
        # a leg meets the speed cap only in play
        fast = ScriptedPursuer([(1.0, Vec2(1.5, 0.0))])
        with pytest.raises(ValueError, match="exceeds the cap"):
            simulate(make_config(), fast, ScriptedEvader(()))

    def test_fixes_are_taken_at_the_listed_instants(self):
        cfg = make_config(rho0=3.0, t_f=5.0, n=2)
        script = ScriptedPursuer([(0.5, Vec2(1.0, 0.0))], (1.25, 2.5))
        result = simulate(cfg, script, ScriptedEvader(()))
        assert result.outcome.sensing_times == (1.25, 2.5)
        assert result.pursuer_trajectory.end_position == Vec2(0.5, 0.0)


class TestRandomStreams:
    def test_trial_rng_deterministic_and_independent(self):
        a = trial_rng(42, 0).random(4)
        b = trial_rng(42, 0).random(4)
        c = trial_rng(42, 1).random(4)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_theta_stream_values(self):
        draws = theta_stream(7, 3, 64)
        assert len(draws) == 64
        assert set(draws) <= {1, -1}
        assert draws == theta_stream(7, 3, 64)
        assert theta_stream(7, 3, 0) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            trial_rng(-1, 0)
        with pytest.raises(ValueError):
            trial_rng(0, -1)
        with pytest.raises(ValueError):
            theta_stream(0, 0, -1)


class TestBuilders:
    def test_registries(self):
        assert PURSUER_NAMES == ("continuous", "prop1", "thm1", "aleem")
        assert EVADER_NAMES == ("radial", "equilibrium", "scripted")

    def test_every_name_constructs(self):
        cfg = make_config(n=2)
        for name in PURSUER_NAMES:
            assert build_pursuer(name, cfg) is not None
        for name in EVADER_NAMES:
            if name == "scripted":
                selector = {"name": "scripted", "legs": [[1.0, [0.0, 0.5]]]}
            else:
                selector = name
            assert build_evader(selector, cfg) is not None

    def test_object_specs_with_params(self):
        cfg = make_config()
        p = build_pursuer({"name": "continuous", "review_dt": 0.5}, cfg)
        assert p.review_dt == 0.5
        e = build_evader({"name": "radial", "review_dt": 0.3}, cfg)
        assert e.review_dt == 0.3
        eq = build_evader({"name": "equilibrium", "thetas": [1, -1]}, cfg)
        assert eq.thetas == (1, -1)

    def test_equilibrium_default_thetas_follow_seed(self):
        cfg = make_config(n=4, seed=11)
        eq = build_evader("equilibrium", cfg)
        assert tuple(eq.thetas) == theta_stream(11, 0, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 130),
           st.lists(st.integers(0, 130), max_size=8))
    def test_lazy_draws_equal_the_bulk_stream_property(self, seed, n, reads):
        """Read in any order, the built evader's stream and ``theta_stream`` are the bulk draw."""
        eq = build_evader("equilibrium", make_config(n=n, seed=seed))
        bulk = tuple(int(x) for x in trial_rng(seed, 0).choice((-1, 1), size=n + 1))
        reads = [k for k in reads if k <= n]
        assert [eq.thetas[k] for k in reads] == [bulk[k] for k in reads]
        assert len(eq.thetas) == n + 1 and tuple(eq.thetas) == bulk
        assert theta_stream(seed, 0, n + 1) == bulk

    def test_equilibrium_draws_only_the_orientations_read(self, monkeypatch):
        drawn = []
        true_rng = strategies.trial_rng

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def choice(self, *args, **kwargs):
                values = self.rng.choice(*args, **kwargs)
                drawn.append(np.size(values))
                return values

        monkeypatch.setattr(strategies, "trial_rng",
                            lambda seed, trial: CountingRng(true_rng(seed, trial)))
        cfg = make_config(rho0=1.0, t_f=5.0, n=10**6)
        result = simulate(cfg, build_pursuer("thm1", cfg), build_evader("equilibrium", cfg))
        assert result.outcome.captured
        assert 1 <= sum(drawn) <= len(result.outcome.sensing_times) + 1

    def test_rejects_unknown_names_and_params(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="unknown pursuer"):
            build_pursuer("zigzag", cfg)
        with pytest.raises(ValueError, match="unknown evader"):
            build_evader("zigzag", cfg)
        with pytest.raises(ValueError, match="unknown parameters"):
            build_pursuer({"name": "prop1", "review_dt": 0.5}, cfg)
        with pytest.raises(ValueError, match="'name' key"):
            build_evader({"review_dt": 0.5}, cfg)
        with pytest.raises(ValueError, match="'legs'"):
            build_evader({"name": "scripted"}, cfg)


# JSON-shaped values: every type a config file can hold, nan and infinity too.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=2),
    max_leaves=8)
_THETAS = _JSON | st.lists(st.sampled_from([1, -1]) | _JSON, max_size=4)
_LEGS = _JSON | st.lists(
    _JSON | st.tuples(st.floats(0.0, 4.0) | _JSON,
                      st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2) | _JSON),
    max_size=3)


def _built_or_message(build):
    """The strategy ``build()`` returns, or its ``ValueError``'s message; anything else raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestParameterChecks:
    """Constructors and config builders take the same values, with the same messages."""

    @staticmethod
    def same(direct, from_config, field):
        if isinstance(direct, str):
            assert from_config == direct
        else:
            assert repr(getattr(from_config, field)) == repr(getattr(direct, field))

    @settings(max_examples=300, deadline=None)
    @given(_THETAS)
    def test_thetas_property(self, thetas):
        cfg = make_config(n=3)
        built = _built_or_message(
            lambda: build_evader({"name": "equilibrium", "thetas": thetas}, cfg))
        if thetas is None:  # the config's seeded stream
            assert tuple(built.thetas) == theta_stream(cfg.seed, 0, cfg.n + 1)
            return
        self.same(_built_or_message(lambda: EquilibriumEvader(thetas)), built, "thetas")

    @settings(max_examples=300, deadline=None)
    @given(_LEGS)
    def test_legs_property(self, legs):
        direct = _built_or_message(lambda: ScriptedEvader(legs))
        self.same(direct, _built_or_message(lambda: ScriptedPursuer(legs=legs)), "legs")
        built = _built_or_message(lambda: build_evader({"name": "scripted", "legs": legs},
                                                       make_config()))
        self.same(direct, built, "legs")

    @settings(max_examples=200, deadline=None)
    @given(_JSON)
    def test_review_dt_property(self, review_dt):
        cfg = make_config()
        for cls, build, name in ((RadialEvader, build_evader, "radial"),
                                 (ContinuousPursuer, build_pursuer, "continuous")):
            direct = _built_or_message(lambda: cls(review_dt=review_dt))
            built = _built_or_message(lambda: build({"name": name, "review_dt": review_dt}, cfg))
            self.same(direct, built, "review_dt")

    @pytest.mark.parametrize("build, message", [
        (lambda: ScriptedEvader(5), "legs must be a list of [t_end, [vx, vy]] pairs, got 5"),
        (lambda: ScriptedPursuer([(1.0,)]), "legs[0] must be a pair [t_end, [vx, vy]], got (1.0,)"),
        (lambda: ScriptedEvader([(1.0, 2.0)]), "leg velocity must be a pair [x, y], got 2.0"),
        (lambda: EquilibriumEvader(7), "thetas must be a list of +1/-1 integers, got 7"),
        (lambda: EquilibriumEvader([1, True]),
         "thetas must be a list of +1/-1 integers, got [1, True]"),
    ], ids=["legs_int", "leg_short", "leg_velocity", "thetas_int", "thetas_bool"])
    def test_constructor_messages(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_vec2_velocities_pass_untouched(self):
        velocity = Vec2(0.25, 0.5)
        script = ScriptedPursuer([(1.0, velocity)])
        assert script.legs[0][1] is velocity
        assert ScriptedEvader([[2, [0, 0.5]]]).legs == ((2.0, Vec2(0.0, 0.5)),)


def test_arrival_tolerance_is_tiny():
    # strategies treat sub-tolerance gaps as arrival; keep it well below r_cap scales
    assert 0 < CHECK_TOL <= 1e-6
    assert math.isfinite(CHECK_TOL)
