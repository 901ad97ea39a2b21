"""Command-line front end: simulations, table exports, verification, degradation.

Commands: ``simulate``, ``value-grid``, ``compare-nmax``, ``degradation``,
``verify``.  Exit codes: 0 on success, 1 when a verification suite fails,
2 on usage or configuration errors.  Every file-writing run also
writes a ``<out>.manifest.json`` recording the command, resolved inputs,
seed (null for the closed-form table commands, which draw nothing random),
and tool version; re-running from a manifest's inputs reproduces the
outputs byte for byte.  All numbers are printed with 9 significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .core import (PAYOFF_KINDS, GameConfig, PayoffSpec, RegionNotCoveredError, _count,
                   _fmt_cells, _in_unit, _nonnegative, _positive, _r_cap_below, fmt_g, write_csv)
from .engine import simulate, write_trajectory_csv
from .strategies import build_evader, build_pursuer
from .value import (
    degradation_report,
    sense_count_arrival,
    sense_count_self_triggered,
    value_bound,
)
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]

# Most cells one value-grid may hold, and a typical row's length (CRLF
# included) on the benchmark's grid, to estimate the CSV a larger grid would write.
_MAX_GRID_CELLS = 10**7
_ROW_BYTES = 54


def _write_manifest(args, config: dict, seed: Optional[int], outputs: list[str]) -> None:
    """Write the reproducibility record ``<args.out>.manifest.json``."""
    manifest = {
        "command": args.command,
        "argv": list(args.argv),
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": list(outputs),
        "duration_s": time.monotonic() - args.started,
    }
    Path(f"{args.out}.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _load_json_object(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return data


def _config_from_file(path: str, seed_override: Optional[int]):
    """Load a game config plus optional strategy entries.

    Returns (config, pursuer_choice, evader_choice, resolved_dict).
    """
    data = _load_json_object(path)
    pursuer_choice = data.pop("pursuer", "thm1")
    evader_choice = data.pop("evader", "equilibrium")
    if seed_override is not None:
        data["seed"] = seed_override
    try:
        config = GameConfig.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    resolved = config.to_dict()
    resolved["pursuer"] = pursuer_choice
    resolved["evader"] = evader_choice
    return config, pursuer_choice, evader_choice, resolved


def _write_table(args, config: dict, header: tuple[str, ...], rows) -> int:
    """The table commands' exit: the CSV, its manifest and the ``N rows -> out`` line."""
    count = write_csv(args.out, header, rows)
    _write_manifest(args, config, None, [args.out])
    print(f"{count} rows -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    config, pursuer_choice, evader_choice, resolved = _config_from_file(args.config, args.seed)
    try:
        pursuer = build_pursuer(pursuer_choice, config)
        evader = build_evader(evader_choice, config)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    result = simulate(config, pursuer, evader)
    outcome = result.outcome
    if outcome.captured:
        print(f"captured t={fmt_g(outcome.capture_time)} payoff={fmt_g(outcome.payoff)}")
    else:
        print(f"no capture final_distance={fmt_g(outcome.final_distance)} "
              f"payoff={fmt_g(outcome.payoff)}")
    if args.out:
        outcome_path = f"{args.out}.outcome.json"
        traj_path = f"{args.out}.trajectory.csv"
        Path(outcome_path).write_text(
            json.dumps(outcome.to_json_dict(), indent=2) + "\n"
        )
        write_trajectory_csv(traj_path, result)
        _write_manifest(args, resolved, config.seed, [outcome_path, traj_path])
    return 0


def _parse_ell(raw: str) -> range:
    try:
        if ":" in raw:
            lo_s, hi_s = raw.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 0 or hi < lo:
                raise ValueError
            return range(lo, hi + 1)
        value = int(raw)
        if value < 0:
            raise ValueError
        return range(value, value + 1)
    except ValueError:
        raise ValueError(
            f"--ell must be a nonnegative integer or lo:hi range, got {raw!r}") from None


def _linspace(lo: float, hi: float, steps: int, what: str) -> list[float]:
    """``steps`` (checked by the caller) evenly spaced points from ``lo`` to ``hi``."""
    if hi < lo:
        raise ValueError(f"{what}: max {hi} is below min {lo}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_value_grid(args) -> int:
    _in_unit(args.nu, "--nu")
    _positive(args.r_cap, "--r-cap")
    for flag, end in (("--rho-min", args.rho_min), ("--rho-max", args.rho_max),
                      ("--tau-min", args.tau_min), ("--tau-max", args.tau_max)):
        _nonnegative(end, flag)
    ells = _parse_ell(args.ell)
    cells = _count(args.rho_steps, "--rho-steps") * _count(args.tau_steps, "--tau-steps") * len(ells)
    if cells > _MAX_GRID_CELLS:
        raise ValueError(f"the grid has {cells} cells, more than the {_MAX_GRID_CELLS} "
                         f"allowed; its CSV would take about {cells * _ROW_BYTES / 1e9:.3g} GB")
    rhos = _linspace(args.rho_min, args.rho_max, args.rho_steps, "rho range")
    taus = _linspace(args.tau_min, args.tau_max, args.tau_steps, "tau range")
    phi = PayoffSpec(args.phi, args.r_cap)
    # Evaluate the whole grid before the CSV is opened, so a bad grid writes nothing.
    rho_grid, tau_grid = np.array(rhos)[:, None], np.array(taus)[None, :]
    bounds = [value_bound(rho_grid, tau_grid, ell, phi, args.nu) for ell in ells]
    rho_cells = [cell for cell in map(fmt_g, rhos) for _ in taus]
    tau_cells = list(map(fmt_g, taus)) * len(rhos)
    flag_cells = np.array(("false", "true"), dtype=object)
    rows = itertools.chain.from_iterable(
        zip(rho_cells, tau_cells, itertools.repeat(str(ell)),
            _fmt_cells(bound.value),
            bound.case_tag.ravel().tolist(),
            flag_cells[bound.is_tight.ravel().astype(np.intp)].tolist())
        for ell, bound in zip(ells, bounds)
    )
    config = {
        "nu": args.nu, "r_cap": args.r_cap, "phi": {"kind": args.phi},
        "rho": [args.rho_min, args.rho_max, args.rho_steps],
        "tau": [args.tau_min, args.tau_max, args.tau_steps],
        "ell": args.ell,
    }
    return _write_table(args, config,
                        ("rho", "tau", "ell", "value", "case_tag", "is_tight"), rows)


def cmd_compare_nmax(args) -> int:
    if not 0.0 < args.nu_min <= args.nu_max < 1.0:
        raise ValueError(
            f"--nu range must satisfy 0 < min <= max < 1, got [{args.nu_min}, {args.nu_max}]"
        )
    _r_cap_below(args.r_cap, args.rho0)
    nus = _linspace(args.nu_min, args.nu_max, _count(args.nu_steps, "--nu-steps"), "nu range")
    rows = [
        (fmt_g(nu), str(sense_count_self_triggered(args.rho0, args.r_cap, nu)),
         str(sense_count_arrival(args.rho0, args.r_cap, nu)))
        for nu in nus
    ]
    config = {
        "rho0": args.rho0, "r_cap": args.r_cap,
        "nu": [args.nu_min, args.nu_max, args.nu_steps],
    }
    return _write_table(args, config, ("nu", "aleem_n_max", "prop1_n_max"), rows)


def _parse_nu_list(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--nu must be a comma-separated list of numbers, got {raw!r}") from None
    if not values:
        raise ValueError("--nu list is empty")
    return [_in_unit(nu, "--nu") for nu in values]


def cmd_degradation(args) -> int:
    _r_cap_below(args.r_cap, args.rho0)
    _positive(args.tf_frac, "--tf-frac")
    nus = _parse_nu_list(args.nu)
    phi = PayoffSpec(args.phi, args.r_cap)
    rows = []
    for nu in nus:
        t_f = args.tf_frac * (args.rho0 - args.r_cap) / (1.0 - nu)
        try:
            report = degradation_report(args.rho0, t_f, nu, phi)
        except RegionNotCoveredError as exc:
            print(f"warning: nu={fmt_g(nu)} skipped: {exc}", file=sys.stderr)
            continue
        rows += [
            (fmt_g(nu), str(n), fmt_g(report.betas[n]) if n < len(report.betas) else "",
             fmt_g(delta), fmt_g(report.continuous_payoff), str(report.n_star))
            for n, delta in enumerate(report.deltas)
        ]
    config = {
        "rho0": args.rho0, "r_cap": args.r_cap, "tf_frac": args.tf_frac,
        "nu": nus, "phi": {"kind": args.phi},
    }
    return _write_table(args, config,
                        ("nu", "n", "beta", "delta", "continuous_payoff", "n_star"), rows)


def cmd_verify(args) -> int:
    config = None
    resolved: dict = {}
    if args.config is not None:
        config, _, _, resolved = _config_from_file(args.config, args.seed)
    seed = args.seed if args.seed is not None else 0
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.extend(run_suite(name, config=config, trials=args.trials,
                                 seed=seed, dt=args.dt))
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2)
    print(payload)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.suite}: {status} "
              f"(trials={report.trials}, worst={fmt_g(report.worst_violation)})",
              file=sys.stderr)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        _write_manifest(args, resolved or {"suite": args.suite}, seed, [args.out])
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intermittent-pursuit",
        description="Pursuit game with an intermittently sensing pursuer: "
                    "simulation, closed-form value bounds, and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one game from a JSON config")
    p_sim.add_argument("--config", required=True, help="game config JSON path")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", default=None,
                       help="output base path; writes <out>.outcome.json and "
                            "<out>.trajectory.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_grid = sub.add_parser("value-grid", help="emit the closed-form value bound on a grid")
    p_grid.add_argument("--nu", type=float, required=True)
    p_grid.add_argument("--r-cap", type=float, required=True, dest="r_cap")
    p_grid.add_argument("--phi", choices=PAYOFF_KINDS, default="hinge")
    p_grid.add_argument("--rho-min", type=float, default=0.0)
    p_grid.add_argument("--rho-max", type=float, required=True)
    p_grid.add_argument("--rho-steps", type=int, default=300)
    p_grid.add_argument("--tau-min", type=float, default=0.0)
    p_grid.add_argument("--tau-max", type=float, required=True)
    p_grid.add_argument("--tau-steps", type=int, default=300)
    p_grid.add_argument("--ell", default="0", help="budget: integer or lo:hi range")
    p_grid.add_argument("--out", required=True, help="CSV output path")
    p_grid.set_defaults(func=cmd_value_grid)

    p_cmp = sub.add_parser("compare-nmax",
                           help="sensing counts of both schemes across nu")
    p_cmp.add_argument("--rho0", type=float, default=5.0)
    p_cmp.add_argument("--r-cap", type=float, default=0.1, dest="r_cap")
    p_cmp.add_argument("--nu-min", type=float, required=True)
    p_cmp.add_argument("--nu-max", type=float, required=True)
    p_cmp.add_argument("--nu-steps", type=int, default=19)
    p_cmp.add_argument("--out", required=True, help="CSV output path")
    p_cmp.set_defaults(func=cmd_compare_nmax)

    p_deg = sub.add_parser("degradation",
                           help="payoff degradation vs. sensing budget")
    p_deg.add_argument("--rho0", type=float, default=5.0)
    p_deg.add_argument("--r-cap", type=float, default=0.1, dest="r_cap")
    p_deg.add_argument("--tf-frac", type=float, default=0.9, dest="tf_frac",
                       help="horizon as a fraction of the capture-time bound")
    p_deg.add_argument("--nu", required=True,
                       help="comma-separated evader speeds, e.g. 0.5,0.6,0.7,0.8")
    p_deg.add_argument("--phi", choices=PAYOFF_KINDS, default="hinge")
    p_deg.add_argument("--out", required=True, help="CSV output path")
    p_deg.set_defaults(func=cmd_degradation)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--dt", type=float, default=1e-3,
                       help="oracle sampling step")
    p_ver.add_argument("--config", default=None,
                       help="optional game config JSON for the suite")
    p_ver.add_argument("--out", default=None, help="write the report JSON here")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv, args.started = argv, time.monotonic()
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
