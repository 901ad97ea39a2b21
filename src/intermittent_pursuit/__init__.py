"""Pursuit-evasion on a finite horizon with a budget of remote sensor requests.

The pursuer moves at unit speed but sees the evader only through at most
``n`` position fixes it must explicitly request; the evader is slower
(speed ``nu`` < 1) and sees everything.  The package provides an
event-exact simulator for this game, closed-form evaluators for the
pursuer's guaranteed-payoff bound and sensing budgets, and verification
suites that test those closed forms against adversarial simulation.
"""

from .core import (
    CHECK_TOL,
    ROUND_TOL,
    TIME_EPS,
    BudgetViolationError,
    DegenerateDirectionError,
    EnumerationCapError,
    GameConfig,
    PAYOFF_KINDS,
    PayoffSpec,
    RegionNotCoveredError,
    Vec2,
    fmt_g,
    line_of_sight,
    perpendicular,
)
from .engine import (
    Outcome,
    Segment,
    SimulationResult,
    Trajectory,
    detect_capture,
    enumerate_branch_payoffs,
    exact_expected_payoff,
    mc_expected_payoff,
    payoff_of,
    sampled_expected_payoff,
    simulate,
    write_trajectory_csv,
)
from .strategies import (
    ArrivalSensingPursuer,
    CaptureAvoidingEvader,
    ContinuousPursuer,
    EVADER_NAMES,
    EquilibriumEvader,
    EvaderAction,
    EvaderInfo,
    PURSUER_NAMES,
    PursuerAction,
    PursuerInfo,
    RadialEvader,
    ScriptedEvader,
    SelfTriggeredPursuer,
    SensingLog,
    WaitingPursuer,
    build_evader,
    build_pursuer,
    theta_stream,
    trial_rng,
)
from .value import (
    CAPTURE_REGION,
    CASE_TAGS,
    DegradationReport,
    ValueBound,
    continuous_sensing_payoff,
    degradation_report,
    in_loose_region,
    in_loose_region_budgeted,
    matching_sense_count,
    reach_factor,
    self_triggered_contraction,
    self_triggered_contraction_raw,
    sense_count_arrival,
    sense_count_self_triggered,
    sensing_delay,
    STAGE0_CAPTURE,
    STAGE0_CHASE,
    STAGE0_SLACK,
    STAGE0_STOP,
    TIME_LIMITED,
    WAIT_REGION,
    travel_budget,
    trigger_coefficient,
    value_bound,
)
from .verify import (
    EarlyWaitPursuer,
    EndpointDeviationPursuer,
    FirstLegDeviationPursuer,
    SUITE_NAMES,
    VerificationReport,
    capture_time_bound_check,
    default_evader_config,
    default_pursuer_config,
    dense_oracle,
    evader_guarantee_check,
    jensen_bound_check,
    jensen_claimed_floor,
    jensen_expected_distance,
    jensen_random_sweep,
    oracle_agreement_check,
    pursuer_guarantee_check,
    random_piecewise_evader,
    run_suite,
)

__version__ = "0.1.0"
