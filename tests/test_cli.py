"""End-to-end tests of the command-line interface (in-process via main)."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from intermittent_pursuit import DegradationReport, GameConfig, PayoffSpec, cli, core, value_bound
from intermittent_pursuit.cli import main
from conftest import default_config_payload


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_miss_output_line(self, config_json, capsys):
        path = config_json(default_config_payload())
        code, out, err = run_cli("simulate", "--config", path, capsys=capsys)
        assert code == 0
        assert out.strip() == "no capture final_distance=0.783105023 payoff=0.683105023"

    def test_capture_output_line(self, config_json, capsys):
        # nu * rho0 <= r_cap: one blind dash captures the radial evader at
        # (rho0 - r_cap)/(1 - nu) = 0.1
        payload = default_config_payload(x_e0=[0.13, 0.0], t_f=3.0, n=0,
                                         pursuer="prop1", evader="radial")
        path = config_json(payload)
        code, out, _ = run_cli("simulate", "--config", path, capsys=capsys)
        assert code == 0
        assert out.strip() == "captured t=0.1 payoff=0"

    def test_output_files(self, config_json, tmp_path, capsys):
        path = config_json(default_config_payload())
        base = str(tmp_path / "run")
        code, _, _ = run_cli("simulate", "--config", path, "--out", base, capsys=capsys)
        assert code == 0

        outcome = json.loads((tmp_path / "run.outcome.json").read_text())
        assert outcome["captured"] is False
        assert outcome["capture_time"] is None
        assert len(outcome["sensing_times"]) == 2

        lines = (tmp_path / "run.trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "player,t_start,t_end,x0,y0,vx,vy"
        assert any(line.startswith("pursuer,") for line in lines[1:])
        assert any(line.startswith("evader,") for line in lines[1:])

        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["pursuer"] == "thm1"
        assert manifest["config"]["evader"] == "equilibrium"
        assert manifest["seed"] == 42
        assert manifest["version"]
        assert set(manifest["outputs"]) == {
            str(tmp_path / "run.outcome.json"),
            str(tmp_path / "run.trajectory.csv"),
        }

    def test_seed_override_lands_in_manifest(self, config_json, tmp_path, capsys):
        path = config_json(default_config_payload())
        base = str(tmp_path / "run")
        code, _, _ = run_cli("simulate", "--config", path, "--seed", "7",
                             "--out", base, capsys=capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["seed"] == 7

    def test_rerun_is_byte_identical(self, config_json, tmp_path, capsys):
        path = config_json(default_config_payload())
        base_a = str(tmp_path / "a")
        base_b = str(tmp_path / "b")
        run_cli("simulate", "--config", path, "--out", base_a, capsys=capsys)
        run_cli("simulate", "--config", path, "--out", base_b, capsys=capsys)
        assert (tmp_path / "a.outcome.json").read_bytes() == \
            (tmp_path / "b.outcome.json").read_bytes()
        assert (tmp_path / "a.trajectory.csv").read_bytes() == \
            (tmp_path / "b.trajectory.csv").read_bytes()

    def test_budget_past_any_tuple(self, config_json, capsys):
        """A budget of 2^63 or more plays: the evader draws only the flips the game reads."""
        path = config_json(default_config_payload(n=10**20))
        code, out, err = run_cli("simulate", "--config", path, capsys=capsys)
        assert code == 0 and err == ""
        assert out == "captured t=2.86406116 payoff=0\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                               capsys=capsys)
        assert code == 2
        assert "no such file" in err
        code, out, err = run_cli("simulate", "--config", str(tmp_path), capsys=capsys)
        assert code == 2 and out == ""
        assert err == f"error: {tmp_path}: Is a directory\n"

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        code, _, err = run_cli("simulate", "--config", str(path), capsys=capsys)
        assert code == 2
        assert f"{path}:2:3:" in err

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli("simulate", "--config", str(path), capsys=capsys)
        assert code == 2
        assert "JSON object" in err

    @pytest.mark.parametrize("role, name", [("pursuer", "zigzag"), ("evader", "safe_heuristic")])
    def test_unknown_strategy(self, role, name, config_json, capsys):
        path = config_json(default_config_payload(**{role: name}))
        code, _, err = run_cli("simulate", "--config", path, capsys=capsys)
        assert code == 2
        assert f"unknown {role} {name!r}" in err

    def test_config_validation_error(self, config_json, capsys):
        path = config_json(default_config_payload(nu=1.5))
        code, _, err = run_cli("simulate", "--config", path, capsys=capsys)
        assert code == 2
        assert "nu" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_position_is_config_error(self, bad, config_json, capsys):
        # json writes NaN and Infinity, and reads them back
        path = config_json(default_config_payload(x_e0=[bad, 0.0]))
        code, out, err = run_cli("simulate", "--config", path, capsys=capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("key, bad", [("n", 2.5), ("n", True), ("seed", 1.9), ("seed", -0.5)])
    def test_non_integer_budget_or_seed_is_config_error(self, key, bad, config_json, capsys):
        # int() used to truncate these to 2, 1, 1 and 0
        payload = default_config_payload(**{key: bad})
        with pytest.raises(ValueError, match=f"^{key} must be"):
            GameConfig.from_dict(payload)
        code, out, err = run_cli("simulate", "--config", config_json(payload), capsys=capsys)
        assert code == 2
        assert out == ""
        assert f"{key} must be" in err

    @pytest.mark.parametrize("overrides, message", [
        ({"evader": {"name": "scripted", "legs": [[1, 5]]}},
         "leg velocity must be a pair [x, y], got 5"),
        ({"evader": {"name": "scripted", "legs": 3}},
         "legs must be a list of [t_end, [vx, vy]] pairs, got 3"),
        ({"evader": {"name": "scripted", "legs": [[1]]}},
         "legs[0] must be a pair [t_end, [vx, vy]], got [1]"),
        ({"evader": {"name": "radial", "review_dt": "0.1"}},
         "review_dt must be a number, got '0.1'"),
        ({"pursuer": {"name": "continuous", "review_dt": None}},
         "review_dt must be a number, got None"),
        ({"evader": {"name": "equilibrium", "thetas": 5}},
         "thetas must be a list of +1/-1 integers, got 5"),
        ({"evader": {"name": "equilibrium", "thetas": [1.9, -1]}},
         "thetas must be a list of +1/-1 integers, got [1.9, -1]"),
        ({"nu": [0.7]}, "nu must be a number, got [0.7]"),
        ({"x_p0": [None, 0]}, "x_p0[0] must be a number, got None"),
        ({"x_p0": [1]}, "x_p0 must be a pair [x, y], got [1]"),
        ({"phi": "hinge"}, "phi must be an object with a 'kind' key"),
        # JSON types that float() or a bare comparison would accept (true as 1.0)
        ({"nu": "0.7"}, "nu must be a number, got '0.7'"),
        ({"t_f": True}, "t_f must be a number, got True"),
        ({"x_e0": ["1", 0]}, "x_e0[0] must be a number, got '1'"),
        ({"evader": {"name": "radial", "review_dt": True}},
         "review_dt must be a number, got True"),
        ({"evader": {"name": "scripted", "legs": [["1", [0, 0]]]}},
         "leg end time must be a number, got '1'"),
        ({"t_f": 10 ** 400}, "t_f is too large for a float"),  # float() overflows
    ], ids=["leg", "legs", "leg_short", "review_dt_str", "review_dt_null", "thetas_int",
            "thetas_float", "nu_list", "x_p0_null", "x_p0_short", "phi_str", "nu_str", "t_f_bool",
            "x_e0_str", "review_dt_bool", "leg_end_str", "t_f_huge"])
    def test_malformed_config_value_is_config_error(self, overrides, message, config_json,
                                                    capsys):
        path = config_json(default_config_payload(**overrides))
        code, out, err = run_cli("simulate", "--config", path, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_event_budget_is_config_error(self, config_json, capsys):
        payload = default_config_payload(
            t_f=10.0, pursuer={"name": "continuous", "review_dt": 1e-9})
        code, out, err = run_cli("simulate", "--config", config_json(payload), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: event budget 200000 is below")
        assert "Traceback" not in err


class TestValueGrid:
    def test_single_point(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        code, stdout, _ = run_cli(
            "value-grid", "--nu", "0.7", "--r-cap", "0.1",
            "--rho-min", "1", "--rho-max", "1", "--rho-steps", "1",
            "--tau-min", "5", "--tau-max", "5", "--tau-steps", "1",
            "--ell", "2", "--out", out, capsys=capsys,
        )
        assert code == 0
        assert stdout.strip() == f"1 rows -> {out}"
        lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,tau,ell,value,case_tag,is_tight"
        assert lines[1] == "1,5,2,0.683105023,wait_region,true"

    def test_ell_range_multiplies_rows(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        code, stdout, _ = run_cli(
            "value-grid", "--nu", "0.7", "--r-cap", "0.1",
            "--rho-min", "0", "--rho-max", "2", "--rho-steps", "4",
            "--tau-min", "0", "--tau-max", "3", "--tau-steps", "5",
            "--ell", "0:2", "--out", out, capsys=capsys,
        )
        assert code == 0
        lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 4 * 5
        tags = {line.split(",")[4] for line in lines[1:]}
        assert tags <= {
            "capture_region", "time_limited", "wait_region",
            "stage0_case1", "stage0_case2a", "stage0_case2b", "stage0_case3",
        }

    def test_bad_arguments(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        base = ["value-grid", "--nu", "0.7", "--r-cap", "0.1",
                "--rho-min", "0", "--rho-max", "1",
                "--tau-min", "0", "--tau-max", "1", "--out", out]
        code, _, err = run_cli(*base, "--ell", "x", capsys=capsys)
        assert code == 2 and "--ell" in err
        code, _, err = run_cli(*base, "--ell", "3:1", capsys=capsys)
        assert code == 2
        code, _, err = run_cli("value-grid", "--nu", "1.7", "--r-cap", "0.1",
                               "--rho-min", "0", "--rho-max", "1",
                               "--tau-min", "0", "--tau-max", "1",
                               "--out", out, capsys=capsys)
        assert code == 2 and "--nu" in err
        code, _, err = run_cli("value-grid", "--nu", "0.7", "--r-cap", "0.1",
                               "--rho-min", "2", "--rho-max", "1",
                               "--tau-min", "0", "--tau-max", "1",
                               "--out", out, capsys=capsys)
        assert code == 2 and "below min" in err
        for flag, value in [("--rho-steps", "0"), ("--r-cap", "0"), ("--rho-min", "-1"),
                            ("--ell", "-1")]:
            code, stdout, err = run_cli(*base, flag, value, capsys=capsys)
            assert code == 2 and stdout == "" and err.startswith("error: "), flag
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--tau-max", "nan"), ("--rho-max", "inf"), ("--rho-min", "nan"), ("--tau-min", "inf"),
    ])
    def test_non_finite_grid_writes_nothing(self, flag, value, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        params = {"--rho-min": "0", "--rho-max": "1", "--tau-max": "1"}
        params[flag] = value
        argv = ["value-grid", "--nu", "0.7", "--r-cap", "0.1", "--ell", "0:2",
                "--rho-steps", "3", "--tau-steps", "3", "--out", str(out)]
        for key, raw in params.items():
            argv += [key, raw]
        code, stdout, err = run_cli(*argv, capsys=capsys)
        assert code == 2 and stdout == "" and err.startswith("error: ")
        assert flag in err and value in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("steps, ell, cells", [
        ("20000", "0", 400_000_000),
        ("3163", "0", 10_004_569),  # just past the cap
        ("2", "0:1000000000000", 4_000_000_000_004),  # the ell range is never listed
    ])
    def test_oversized_grid_fails_fast(self, steps, ell, cells, tmp_path, capsys):
        code, stdout, err = run_cli(
            "value-grid", "--nu", "0.7", "--r-cap", "0.1", "--rho-max", "3", "--tau-max", "6",
            "--rho-steps", steps, "--tau-steps", steps, "--ell", ell,
            "--out", str(tmp_path / "grid.csv"), capsys=capsys)
        assert code == 2 and stdout == ""
        assert err == (f"error: the grid has {cells} cells, more than the 10000000 allowed; "
                       f"its CSV would take about {cells * 54 / 1e9:.3g} GB\n")
        assert list(tmp_path.iterdir()) == []

    def test_value_cells_format_each_distinct_number_once(self, tmp_path, monkeypatch):
        """``fmt_g`` is called once per distinct value bit pattern of each ell's table,
        plus once per rho and per tau.

        Formatting every cell on its own again fails this.
        """
        calls = 0
        fmt_g = core.fmt_g

        def counting_fmt_g(value):
            nonlocal calls
            calls += 1
            return fmt_g(value)

        # the grid as the CLI spaces it
        rhos, taus = (np.array([hi * i / 39 for i in range(40)]) for hi in (3.0, 6.0))
        distinct = sum(
            np.unique(value_bound(rhos[:, None], taus[None, :], ell, PayoffSpec("hinge", 0.1),
                                  0.7).value.view(np.uint64)).size
            for ell in range(5))
        monkeypatch.setattr(core, "fmt_g", counting_fmt_g)
        monkeypatch.setattr(cli, "fmt_g", counting_fmt_g)
        code = main(["value-grid", "--nu", "0.7", "--r-cap", "0.1", "--rho-max", "3",
                     "--tau-max", "6", "--rho-steps", "40", "--tau-steps", "40",
                     "--ell", "0:4", "--out", str(tmp_path / "grid.csv")])
        assert code == 0
        assert len((tmp_path / "grid.csv").read_text().splitlines()) == 1 + 40 * 40 * 5
        assert 0 < calls <= distinct + 40 + 40


class TestCompareNmax:
    def test_frozen_rows(self, tmp_path, capsys):
        out = str(tmp_path / "cmp.csv")
        code, _, _ = run_cli("compare-nmax", "--nu-min", "0.7", "--nu-max", "0.9",
                             "--nu-steps", "2", "--out", out, capsys=capsys)
        assert code == 0
        lines = (tmp_path / "cmp.csv").read_text().strip().splitlines()
        assert lines[0] == "nu,aleem_n_max,prop1_n_max"
        assert lines[1] == "0.7,24,10"
        assert lines[2] == "0.9,118,37"

    def test_range_validation(self, tmp_path, capsys):
        out = str(tmp_path / "cmp.csv")
        code, _, err = run_cli("compare-nmax", "--nu-min", "0", "--nu-max", "0.9",
                               "--out", out, capsys=capsys)
        assert code == 2 and "0 < min <= max < 1" in err
        code, _, err = run_cli("compare-nmax", "--nu-min", "0.5", "--nu-max", "0.9",
                               "--rho0", "0.05", "--out", out, capsys=capsys)
        assert code == 2 and "r_cap" in err


class TestDegradation:
    def test_frozen_beta_row(self, tmp_path, capsys):
        out = str(tmp_path / "deg.csv")
        code, _, _ = run_cli("degradation", "--nu", "0.7", "--out", out, capsys=capsys)
        assert code == 0
        lines = (tmp_path / "deg.csv").read_text().strip().splitlines()
        assert lines[0] == "nu,n,beta,delta,continuous_payoff,n_star"
        row = lines[1 + 3].split(",")  # n = 3
        assert row[:2] == ["0.7", "3"]
        assert row[2] == "1.36168675"
        assert row[5] == "5"  # n_star
        assert len(lines) == 1 + 6  # rows n = 0 .. n_star inclusive

    def test_empty_beta_when_continuous_chase_closes(self, tmp_path, capsys):
        out = str(tmp_path / "deg.csv")
        code, _, _ = run_cli("degradation", "--nu", "0.5", "--tf-frac", "1.2",
                             "--out", out, capsys=capsys)
        assert code == 0
        lines = (tmp_path / "deg.csv").read_text().strip().splitlines()
        for line in lines[1:]:
            assert line.split(",")[2] == ""  # beta undefined, cell left empty

    def test_skips_uncovered_nu_with_warning(self, tmp_path, capsys):
        out = str(tmp_path / "deg.csv")
        code, _, err = run_cli("degradation", "--nu", "0.7", "--rho0", "0.15",
                               "--out", out, capsys=capsys)
        assert code == 0
        assert "warning" in err and "skipped" in err
        assert len((tmp_path / "deg.csv").read_text().strip().splitlines()) == 1

    def test_floor_violation_is_an_error(self, tmp_path, capsys, monkeypatch):
        # DegradationReport refuses a table below its own floor: exit 2, no CSV
        def below_floor(rho0, t_f, nu, phi):
            return DegradationReport(deltas=(0.1,), betas=(1.0,), continuous_payoff=0.5)

        monkeypatch.setattr(cli, "degradation_report", below_floor)
        out = tmp_path / "deg.csv"
        code, _, err = run_cli("degradation", "--nu", "0.7", "--out", str(out),
                               capsys=capsys)
        assert code == 2
        assert err.startswith("error: degradation floor violated")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--nu", "0.5,oops"), ("--nu", "1.5"), ("--nu", ","),
        ("--nu", "0.7", "--r-cap", "6"), ("--nu", "0.7", "--tf-frac", "0"),
    ], ids=["nu_not_a_number", "nu_above_1", "nu_empty", "r_cap_above_rho0", "tf_frac_0"])
    def test_bad_arguments(self, argv, tmp_path, capsys):
        out = tmp_path / "deg.csv"
        code, stdout, err = run_cli("degradation", *argv, "--out", str(out), capsys=capsys)
        assert code == 2 and stdout == "" and err.startswith("error: ")
        assert not out.exists()


class TestVerify:
    def test_passing_suite_exit_zero(self, capsys):
        code, out, err = run_cli("verify", "pursuer", "--trials", "12", capsys=capsys)
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1 and reports[0]["suite"] == "pursuer"
        assert "pursuer: PASS" in err

    def test_jensen_fails_with_exit_one(self, capsys):
        code, out, err = run_cli("verify", "jensen", "--trials", "30", capsys=capsys)
        assert code == 1
        reports = json.loads(out)
        assert [r["suite"] for r in reports] == ["jensen", "jensen_random"]
        assert all(r["passed"] is False for r in reports)
        assert "jensen: FAIL" in err

    def test_report_file_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code, stdout, _ = run_cli("verify", "capture_time", "--trials", "8",
                                  "--out", out, capsys=capsys)
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text()) == json.loads(stdout)
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "verify"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("suite", ["pursuer", "capture_time", "oracle", "all"])
    def test_trials_below_one_is_an_error(self, suite, trials, capsys):
        code, out, err = run_cli("verify", suite, "--trials", trials, capsys=capsys)
        assert code == 2 and out == ""
        assert err == f"error: trials must be positive, got {trials}\n"

    @pytest.mark.parametrize("suite", ["jensen", "pursuer", "evader", "capture_time", "oracle",
                                       "all"])
    def test_trials_above_the_cap_is_an_error(self, suite, capsys):
        start = time.perf_counter()
        code, out, err = run_cli("verify", suite, "--trials", "1000001", capsys=capsys)
        assert time.perf_counter() - start < 1.0  # refused before any work
        assert code == 2 and out == ""
        assert err == "error: trials 1000001 is above the cap 1000000\n"

    @pytest.mark.parametrize("t_f", [0.0, 1e-13])
    def test_evader_skips_a_fix_at_the_start(self, t_f, config_json, capsys):
        """A tight state whose first fix falls within a rounding step of t = 0 still reports."""
        config = config_json(default_config_payload(t_f=t_f, n=2))
        code, out, err = run_cli("verify", "evader", "--config", config, capsys=capsys)
        assert code == 0
        report, = json.loads(out)
        assert report["passed"] is True
        assert "20 deviations with a fix within a rounding step of t = 0 skipped" in report["notes"]
        assert "evader: PASS" in err

    def test_evader_passes_at_a_capture_state(self, config_json, capsys):
        """Criterion 5's config 12: endpoint_opt is played, but need not tie a bound of 0."""
        path = config_json(default_config_payload(x_e0=[0.13, 0.0], t_f=1.0, n=0))
        code, out, err = run_cli("verify", "evader", "--config", path, capsys=capsys)
        assert code == 0 and "evader: PASS" in err
        report, = json.loads(out)
        assert report["notes"][0] == "bound 0 (stage0_case1, tight=True)"
        assert report["trials"] == 2374 and report["worst_violation"] == 0.0

    @pytest.mark.parametrize("suite", ["evader", "pursuer"])
    def test_budget_past_any_tuple(self, suite, config_json, capsys):
        """At a budget of 2^63 or more a suite reports what it reports at 10^4."""
        reports = []
        for n in (10**20, 10**4):
            path = config_json(default_config_payload(n=n), name=f"game_{n}.json")
            code, out, err = run_cli("verify", suite, "--trials", "12", "--config", path,
                                     capsys=capsys)
            assert code == 0 and f"{suite}: PASS" in err
            reports.append(out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])[0]["suite"] == suite

    def test_pursuer_at_a_zero_horizon(self, config_json, capsys):
        """At t_f = 0 every random evader draws no leg and stands still."""
        path = config_json(default_config_payload(t_f=0.0, n=1))
        code, out, err = run_cli("verify", "pursuer", "--trials", "20", "--config", path,
                                 capsys=capsys)
        assert code == 0
        report, = json.loads(out)
        assert report["passed"] is True and report["trials"] == 20
        assert "pursuer: PASS" in err

    def test_oracle_rejects_an_infinite_step(self, capsys):
        code, out, err = run_cli("verify", "oracle", "--trials", "200", "--dt", "inf",
                                 capsys=capsys)
        assert code == 2 and out == ""
        assert err == "error: dt must be positive and finite, got inf\n"

    def test_oracle_with_a_tiny_step_fails_fast(self, capsys):
        # 10 scenarios of up to 47.4 time units each, sampled every 1e-8
        started = time.monotonic()
        code, out, err = run_cli("verify", "oracle", "--trials", "20", "--dt", "1e-8",
                                 capsys=capsys)
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        assert err == ("error: dt=1e-08 could scan about 4.74e+10 samples in 10 scenarios, "
                       "more than the 1e+10 allowed\n")

    def test_oracle_fails_when_it_compares_no_capture(self, capsys):
        # every capture lies within 2 dt of an end of the horizon, so none is compared
        code, out, err = run_cli("verify", "oracle", "--trials", "200", "--dt", "1e9",
                                 capsys=capsys)
        assert code == 1
        report, = json.loads(out)
        assert report["notes"] == ["10 scenarios (0 captures), dt=1e+09"]
        assert report["failures"] == [
            "0 captures compared: no capture scenario was accepted at dt=1e+09"]
        assert "oracle: FAIL" in err


@pytest.mark.parametrize("argv, name", [
    (("simulate", "--config", "{config}"), "run.outcome.json"),
    (("value-grid", "--nu", "0.7", "--r-cap", "0.1", "--rho-max", "1", "--rho-steps", "2",
      "--tau-max", "5", "--tau-steps", "2"), "g.csv"),
    (("compare-nmax", "--nu-min", "0.7", "--nu-max", "0.9", "--nu-steps", "2"), "cmp.csv"),
    (("degradation", "--nu", "0.7"), "deg.csv"),
    (("verify", "jensen", "--trials", "30"), "r.json"),
], ids=["simulate", "value_grid", "compare_nmax", "degradation", "verify"])
def test_unwritable_out_is_an_error(argv, name, config_json, tmp_path, capsys):
    # exit 1 is kept for a failed suite, so even the red jensen suite exits 2 here
    missing = tmp_path / "missing"
    out = missing / ("run" if argv[0] == "simulate" else name)
    argv = [arg.format(config=config_json(default_config_payload())) for arg in argv]
    code, _, err = run_cli(*argv, "--out", str(out), capsys=capsys)
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert errors == [f"error: {missing / name}: No such file or directory"]
    assert "Traceback" not in err
    assert not missing.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def _run_module(*argv):
    """``python -m intermittent_pursuit`` on this checkout's sources."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "intermittent_pursuit", *argv],
                          env=env, capture_output=True, text=True)


def test_console_script_entry_point():
    proc = _run_module("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_module_run_without_a_command_is_usage_error():
    proc = _run_module()
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "the following arguments are required: command" in proc.stderr
