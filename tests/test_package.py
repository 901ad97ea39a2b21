"""Package-level contracts: the public namespace and a single-process import."""

import ast
import inspect
import math
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import intermittent_pursuit as ip
from intermittent_pursuit import cli, core, engine, strategies, value, verify
from conftest import default_config_payload, make_config


def test_exports_are_consistent():
    modules = (core, value, strategies, engine, verify)
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    exported = {
        name for name in dir(ip)
        if not name.startswith("_") and not inspect.ismodule(getattr(ip, name))
    }
    listed = set().union(*(module.__all__ for module in modules))
    assert exported == listed, (
        f"exported but unlisted: {sorted(exported - listed)}; "
        f"listed but not exported: {sorted(listed - exported)}"
    )


def test_import_loads_no_process_pool():
    src = str(Path(ip.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import sys, intermittent_pursuit, intermittent_pursuit.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'multiprocessing'\n"
        "             or m == 'concurrent.futures' or m.startswith('concurrent.futures.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]", out


def test_tolerance_literals_live_only_in_the_policy():
    """Each policy tolerance is spelt as a number once, in core's policy block.

    Number tokens, not text, are scanned, so strings and docstrings that
    quote a tolerance (such as "holds to 1e-12") are left alone.
    """
    policy = {1e-15: "TIME_EPS = 1e-15", 1e-12: "ROUND_TOL = 1e-12", 1e-9: "CHECK_TOL = 1e-9"}
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        with open(path, "rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NUMBER and ast.literal_eval(token.string) in policy:
                    found.append((path.name, token.line.strip()))
    assert sorted(found) == sorted(("core.py", line) for line in policy.values())


# A value each input rule rejects, to read the rule's wording back from core.
_RULES = ((core._in_unit, 1.0), (core._positive, 0.0), (core._nonnegative, -1.0),
          (core._index, -1), (core._count, 0), (core._seed, -1))


def test_input_rule_wording_lives_only_in_core():
    """No module but core spells an input rule's message, so none restates a rule.

    The wording is read back from core's rules ("must be positive, got" and
    so on) and searched for in every string constant, f-string parts
    included, of the package's other modules.
    """
    wordings = []
    for rule, bad in _RULES:
        with pytest.raises(ValueError) as caught:
            rule(bad, "key")
        message = str(caught.value)
        wordings.append(message[len("key "):message.rindex(" ")])
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += [(path.name, node.lineno, w) for w in wordings if w in node.value]
    assert found == []


HINGE = core.PayoffSpec("hinge", 0.1)
NU = "nu must lie strictly in (0, 1), got {}"
POSITIVE = "{} must be positive and finite, got {}"
NONNEGATIVE = "{} must be nonnegative and finite, got {}"
INDEX = "{} must be a nonnegative integer, got {}"
COUNT = "{} must be positive, got {}"
SEED = "{} must be an integer in [0, 2**64), got {}"
STILL = engine.Segment(0.0, 1.0, core.Vec2(0.0, 0.0), core.Vec2(0.0, 0.0))
GRID = ("value-grid", "--nu", "0.7", "--r-cap", "0.1", "--rho-max", "3", "--tau-max", "6")


@pytest.mark.parametrize("call, message", [
    # nu in (0, 1)
    (lambda: make_config(nu=1.0), NU.format(1.0)),
    (lambda: value.trigger_coefficient(0.0), NU.format(0.0)),
    (lambda: value.self_triggered_contraction(1.5), NU.format(1.5)),
    (lambda: value.self_triggered_contraction_raw(math.nan), NU.format(math.nan)),
    (lambda: value.sense_count_self_triggered(5.0, 0.1, 1.0), NU.format(1.0)),
    (lambda: value.sense_count_arrival(5.0, 0.1, "0.7"), NU.format("'0.7'")),
    (lambda: value.travel_budget(5.0, 0.1, -0.5), NU.format(-0.5)),
    (lambda: value.reach_factor(1.0, 2), NU.format(1.0)),
    (lambda: value.sensing_delay(1.0, 2, 5.0), NU.format(1.0)),
    (lambda: value.holds_at_fix(1.0, 5.0, 2, 1.0, 0.1), NU.format(1.0)),
    (lambda: value.value_bound(1.0, 5.0, 2, HINGE, 1.0), NU.format(1.0)),
    (lambda: value.matching_sense_count(5.0, 9.0, 1.0, 0.1), NU.format(1.0)),
    (lambda: value.continuous_sensing_payoff(5.0, 9.0, 1.0, HINGE), NU.format(1.0)),
    (lambda: value.degradation_report(5.0, 9.0, 1.0, HINGE), NU.format(1.0)),
    (GRID[:2] + ("1.5",) + GRID[3:], "--" + NU.format(1.5)),
    (("degradation", "--nu", "0.5,1.5"), "--" + NU.format(1.5)),
    # positive and finite
    (lambda: core.PayoffSpec("hinge", math.inf), POSITIVE.format("r_cap", math.inf)),
    (lambda: make_config(r_cap=0.0), POSITIVE.format("r_cap", 0.0)),
    (lambda: value.sense_count_self_triggered(5.0, math.inf, 0.7),
     POSITIVE.format("r_cap", math.inf)),
    (lambda: value.sense_count_arrival(math.nan, 0.1, 0.7), POSITIVE.format("rho0", math.nan)),
    (lambda: value.travel_budget(5.0, math.inf, 0.7), POSITIVE.format("r_cap", math.inf)),
    (lambda: value.travel_budget(0.0, 0.1, 0.7), POSITIVE.format("rho0", 0.0)),
    (lambda: value.matching_sense_count(5.0, 9.0, 0.7, -0.1), POSITIVE.format("r_cap", -0.1)),
    (lambda: value.matching_sense_count(math.inf, 9.0, 0.7, 0.1),
     POSITIVE.format("rho0", math.inf)),
    (lambda: engine.detect_capture(STILL, STILL, math.inf), POSITIVE.format("r_cap", math.inf)),
    (lambda: strategies.ContinuousPursuer(review_dt=math.inf),
     POSITIVE.format("review_dt", math.inf)),
    (lambda: strategies.RadialEvader(review_dt=0), POSITIVE.format("review_dt", 0.0)),
    (lambda: verify._early_sense(make_config(), math.inf), POSITIVE.format("sense_time", math.inf)),
    (lambda: verify.dense_oracle(make_config(), strategies.WaitingPursuer(),
                                 strategies.RadialEvader(), dt=0.0), POSITIVE.format("dt", 0.0)),
    (lambda: verify.oracle_agreement_check(dt=math.nan), POSITIVE.format("dt", math.nan)),
    (GRID[:4] + ("inf",) + GRID[5:], POSITIVE.format("--r-cap", math.inf)),
    (("degradation", "--nu", "0.7", "--tf-frac", "inf"), POSITIVE.format("--tf-frac", math.inf)),
    # nonnegative and finite
    (lambda: make_config(t_f=-1.0), NONNEGATIVE.format("t_f", -1.0)),
    (lambda: value.matching_sense_count(5.0, math.inf, 0.7, 0.1),
     NONNEGATIVE.format("t_f", math.inf)),
    (lambda: value.continuous_sensing_payoff(-1.0, 9.0, 0.7, HINGE),
     NONNEGATIVE.format("rho0", -1.0)),
    (lambda: value.continuous_sensing_payoff(5.0, math.nan, 0.7, HINGE),
     NONNEGATIVE.format("t_f", math.nan)),
    (lambda: value.value_bound(1.0, -5.0, 2, HINGE, 0.7), NONNEGATIVE.format("tau", -5.0)),
    (lambda: value.value_bound(np.array([1.0, -2.0]), 5.0, 2, HINGE, 0.7),
     NONNEGATIVE.format("rho", -2.0)),
    (GRID[:6] + ("-3",) + GRID[7:], NONNEGATIVE.format("--rho-max", -3.0)),
    (GRID + ("--tau-min", "nan"), NONNEGATIVE.format("--tau-min", math.nan)),
    # nonnegative integer
    (lambda: make_config(n=-1), INDEX.format("n", -1)),
    (lambda: value.reach_factor(0.7, 1.0), INDEX.format("ell", 1.0)),
    (lambda: value.sensing_delay(0.7, -1, 5.0), INDEX.format("ell", -1)),
    (lambda: value.holds_at_fix(1.0, 5.0, -1, 0.7, 0.1), INDEX.format("ell", -1)),
    (lambda: value.value_bound(1.0, 5.0, -1, HINGE, 0.7), INDEX.format("ell", -1)),
    (lambda: strategies.trial_rng(0, -1), INDEX.format("trial index", -1)),
    (lambda: strategies.theta_stream(0, 0, -1), INDEX.format("length", -1)),
    # positive count
    (lambda: verify.run_suite("pursuer", trials=0), COUNT.format("trials", 0)),
    (lambda: verify.oracle_agreement_check(n_scenarios=0), COUNT.format("n_scenarios", 0)),
    (lambda: verify.jensen_random_sweep(n=-2), COUNT.format("n", -2)),
    (lambda: engine.mc_expected_payoff(make_config(), strategies.WaitingPursuer(), 0, 0),
     COUNT.format("n_draws", 0)),
    (lambda: engine.sampled_expected_payoff(make_config(), strategies.WaitingPursuer(), 0, 0),
     COUNT.format("n_draws", 0)),
    (("verify", "capture_time", "--trials", "0"), COUNT.format("trials", 0)),
    (GRID + ("--tau-steps", "0"), COUNT.format("--tau-steps", 0)),
    (("compare-nmax", "--nu-min", "0.5", "--nu-max", "0.9", "--nu-steps", "0"),
     COUNT.format("--nu-steps", 0)),
    # seed in [0, 2**64)
    (lambda: make_config(seed=2**64), SEED.format("seed", 2**64)),
    (lambda: core.GameConfig.from_dict(default_config_payload(seed=-1)), SEED.format("seed", -1)),
    (lambda: strategies.trial_rng(-1, 0), SEED.format("seed", -1)),
    (lambda: strategies.theta_stream(2**64, 0, 4), SEED.format("seed", 2**64)),
])
def test_each_input_rule_at_each_entry_point(call, message, tmp_path, capsys):
    """Every entry point rejects a value that breaks a rule with the rule's message.

    A callable must raise ``ValueError``; a CLI argv must exit 2 with the
    message on stderr and write nothing.
    """
    if callable(call):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
        return
    code = cli.main([*call, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
