"""Benchmark of intermittent-pursuit: four workloads, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke              # tiny inputs, checks the benchmark itself
    python3 bench/run.py --profile [--seed N] # cProfile top-10 of two workloads
    python3 bench/run.py --record-digests 0-31

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` a run
repeats passes over the workload's inputs for about ``--seconds`` and
reports end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer metrics.  Every pass's outputs are
digested and compared with the digests recorded in ``digests.json`` (or,
for a seed without a record, with the run's first pass).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
DIGESTS = Path(__file__).with_name("digests.json")
THREADS_ENV_VAR = "INTERMITTENT_PURSUIT_THREADS"

SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 3


def import_package():
    """The package from this checkout's src directory, with its cli module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import intermittent_pursuit as ip
    import intermittent_pursuit.cli  # noqa: F401  (binds ip.cli)

    if Path(ip.__file__).resolve().parent != SRC / "intermittent_pursuit":
        raise ImportError(f"intermittent_pursuit imported from {ip.__file__}, not {SRC}")
    return ip


def source_digest() -> str:
    data = b"".join(p.read_bytes() for p in sorted((SRC / "intermittent_pursuit").glob("*.py")))
    return workloads.sha16(data)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(threads_env) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        # The package fans trials out to processes when this is set; the
        # benchmark removes it so every number is serial, and records it.
        "threads_env_removed": threads_env,
    }


def metric_names(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json lists under ``kind``."""
    return [(m["name"], m["unit"]) for m in json.loads(SPEC.read_text())[kind]]


def reference_digests(name: str, seed: int):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text())["digests"].get(name, {}).get(str(seed))


class Run:
    """One workload's inputs, scratch directory and correctness tally."""

    def __init__(self, ip, name: str, seed: int, smoke: bool):
        self.ip = ip
        self.seed = seed
        self.workload = workloads.workload(name, ip)
        self.inputs = self.workload.make_inputs(seed, smoke)
        self.expected = None if smoke else reference_digests(name, seed)
        self.workdir = TMP / f"{name}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None

    def warm_up(self):
        """One unscored pass over the tiny inputs: lazy imports, allocator, caches."""
        self.workload.run(self.workload.make_inputs(self.seed, True), self.workdir)

    def one_pass(self, tracer=None):
        """Wall seconds of one pass over the inputs, and its check."""
        gc.collect()
        if tracer is not None:
            tracer.install(self.ip)
        try:
            start = perf_counter()
            results = self.workload.run(self.inputs, self.workdir)
            seconds = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        check = self.workload.check(self.inputs, results, self.workdir)
        self._score(check)
        return seconds, check

    def _score(self, check):
        """Count the pass's operations, and those that raised, broke a check or
        produced a digest other than the recorded one (or the first pass's)."""
        if self.digests is None:
            self.digests = check.digests
        expected = self.expected or self.digests
        if len(check.digests) != len(expected):
            self.problems.append(f"{len(check.digests)} operations, expected {len(expected)}")
        mismatched = {i for i, digest in enumerate(check.digests)
                      if digest is not None and (i >= len(expected) or digest != expected[i])}
        if mismatched:
            self.problems.append(f"output digests differ at operations {sorted(mismatched)}")
        self.problems.extend(message for _, message in check.problems)
        self.attempted += len(check.digests)
        self.failed += len(mismatched | {i for i, _ in check.problems})

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _more_passes(times, started, seconds, minimum) -> bool:
    if len(times) < minimum:
        return True
    return perf_counter() - started + statistics.median(times) <= seconds


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    """Package import plus input generation, ``probes`` times in this process.

    Each probe drops the package's modules from sys.modules and imports them
    again; numpy, which the package imports, stays loaded.  Fresh
    interpreters are not used: their start-up (process creation, loading
    numpy's shared libraries) took 1.5x longer in busy spells of a shared
    host than in quiet ones, while the package's own work barely moved.
    """
    samples = []
    for _ in range(probes):
        for module in [m for m in sys.modules if m.split(".")[0] == "intermittent_pursuit"]:
            del sys.modules[module]
        started = perf_counter()
        ip = import_package()
        workloads.workload(name, ip).make_inputs(seed, smoke=False)
        samples.append(perf_counter() - started)
    return samples


def end_to_end(run: Run, seconds: float, probes: int) -> dict:
    run.warm_up()
    rates, times, setup = [], [], []
    started = perf_counter()
    while _more_passes(times, started, seconds, MIN_PASSES):
        elapsed, check = run.one_pass()
        times.append(elapsed)
        rates.append(check.units / elapsed)
        # Probing between passes lets set-up sample the same spells of host
        # speed as the passes; probes taken back to back all land in one.
        setup += measure_setup(run.workload.name, run.seed, probes)
    return {
        # The rate three passes in four reach (lower quartile), not the median:
        # on a shared host passes run at a base speed, with spells lasting
        # seconds that are up to 2x faster or slower, and the share of a run
        # the fast spells cover decides where its median lands.
        "ops_per_s": statistics.quantiles(rates, n=4, method="inclusive")[0],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_passes": len(times),
        "_pass_s": times,
        "_setup_s": setup,
    }


def per_layer(ip, run: Run, seconds: float, spans_path, micro_scale: float) -> dict:
    run.warm_up()
    plain, traced, figures = [], [], []
    first = None
    started = perf_counter()
    while _more_passes([a + b for a, b in zip(plain, traced)], started, seconds, 1):
        plain.append(run.one_pass()[0])
        tracer = tracing.Tracer()
        elapsed, check = run.one_pass(tracer)
        traced.append(elapsed)
        layer = tracer.layer_metrics()
        layer["cli.bytes_written"] = check.bytes_written
        figures.append(layer)
        run.problems.extend(tracer.check_nesting())
        if first is None:
            first = tracer
    first.write_spans(spans_path)
    metrics = {name: statistics.median_low(f[name] for f in figures) for name in figures[0]}
    metrics.update(tracing.microbenchmarks(ip, micro_scale))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["_plain_s"] = plain
    metrics["_traced_s"] = traced
    return metrics


def measure(ip, facts, name, seed, seconds, trace, smoke=False) -> dict:
    """One benchmark run: the result object plus what it was measured on."""
    run = Run(ip, name, seed, smoke)
    OUT.mkdir(exist_ok=True)
    try:
        if trace:
            spans_path = OUT / f"spans-{name}-seed{seed}.csv"
            raw = per_layer(ip, run, seconds, spans_path, 0.05 if smoke else 1.0)
        else:
            raw = end_to_end(run, seconds, 1 if smoke else SETUP_PROBES_PER_PASS)
    finally:
        run.close()
    names = metric_names("per_layer" if trace else "end_to_end")
    metrics = {metric: {"value": raw[metric], "unit": unit} for metric, unit in names}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "machine": facts,
        "digests": run.digests,
        "digest": workloads.sha16(json.dumps(run.digests).encode()),
        "reference_digests": run.expected is not None,
        "problems": run.problems,
        "detail": {k: v for k, v in raw.items() if k.startswith("_")},
        "result": {
            "correct": run.failed == 0 and not run.problems and run.attempted > 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }


def report(record, alias: str) -> None:
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if not record["trace"]:
        print(f"(ops_per_s on {record['workload']} is {alias})")
    print(f"failed_ratio {result['failed'] / max(1, result['attempted'])!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"digest {record['digest']} (recorded reference: {record['reference_digests']}) "
          + json.dumps(record["digests"]))


def smoke(ip, facts) -> int:
    """Every workload on tiny inputs, untraced and traced; checks the benchmark."""
    exercised = {
        "pursuer_sweep": ("engine.simulate.calls", "strategies.pursuer_act.calls",
                          "strategies.evader_act.calls", "verify.adversary_gen.calls",
                          "verify.suite.calls", "value.value_bound.calls"),
        "evader_enum": ("engine.expectations.calls", "engine.sims_per_expectation",
                        "verify.suite.calls"),
        "long_games": ("engine.segments", "engine.trajectory_csv.self_s", "core.fmt_g.calls",
                       "cli.bytes_written"),
        "value_grid": ("value.value_bound.calls", "core.fmt_g.calls", "cli.value_grid.self_s",
                       "cli.bytes_written"),
    }
    failures = []
    for name in workloads.WORKLOAD_NAMES:
        for trace in (0, 1):
            started = perf_counter()
            record = measure(ip, facts, name, 0, 0.0, trace, smoke=True)
            result = record["result"]
            wanted = metric_names("per_layer" if trace else "end_to_end")
            metrics = result["metrics"]
            if not result["correct"]:
                failures.append(f"{name} trace={trace}: {record['problems'][:3]}")
            if [m for m, _ in wanted] != list(metrics):
                failures.append(f"{name} trace={trace}: metrics {sorted(metrics)}")
            for metric, entry in metrics.items():
                if not (isinstance(entry["value"], (int, float)) and entry["value"] >= 0):
                    failures.append(f"{name}: {metric} = {entry['value']!r}")
            for metric in exercised[name] if trace else ("ops_per_s", "setup_s"):
                if not metrics[metric]["value"] > 0:
                    failures.append(f"{name} trace={trace}: {metric} is not positive")
            print(f"smoke {name} trace={trace}: {perf_counter() - started:.2f}s, "
                  f"{result['attempted']} operations, correct={result['correct']}")
    for failure in failures:
        print(f"smoke failure: {failure}", file=sys.stderr)
    print("smoke ok" if not failures else f"smoke FAILED ({len(failures)})")
    return 0 if not failures else 1


def profile(ip, seed: int) -> None:
    """cProfile top-10 by self time, one pass each, outside every timed run."""
    OUT.mkdir(exist_ok=True)
    for name in ("pursuer_sweep", "value_grid"):
        run = Run(ip, name, seed, smoke=False)
        try:
            run.warm_up()
            profiler = cProfile.Profile()
            profiler.enable()
            run.workload.run(run.inputs, run.workdir)
            profiler.disable()
        finally:
            run.close()
        text = io.StringIO()
        stats = pstats.Stats(profiler, stream=text)
        stats.strip_dirs().sort_stats("tottime").print_stats(10)
        path = OUT / f"profile-{name}.txt"
        path.write_text(f"# {name}, seed {seed}, one pass, sorted by self time\n"
                        + text.getvalue())
        print(f"wrote {path}")


def record_digests(ip, facts, seeds) -> None:
    """Write digests.json from one full pass per workload and seed."""
    table = {}
    for name in workloads.WORKLOAD_NAMES:
        for seed in seeds:
            run = Run(ip, name, seed, smoke=False)
            try:
                _, check = run.one_pass()
            finally:
                run.close()
            if check.problems or None in check.digests:
                raise RuntimeError(f"{name} seed {seed}: {check.problems[:3]}")
            table.setdefault(name, {})[str(seed)] = check.digests
            print(f"{name} seed {seed}: {workloads.sha16(json.dumps(check.digests).encode())}")
    payload = {
        "recorded_with": {k: facts[k] for k in ("git_commit", "src_digest", "python", "numpy")},
        "digests": table,
    }
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--profile", action="store_true")
    mode.add_argument("--record-digests", metavar="LO-HI", type=parse_seeds)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    if not (args.smoke or args.profile or args.record_digests) and args.workload is None:
        parser.error("--workload is required")

    threads_env = os.environ.pop(THREADS_ENV_VAR, None)
    try:
        ip = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts(threads_env)
    if args.smoke:
        return smoke(ip, facts)
    if args.profile:
        profile(ip, args.seed)
        return 0
    if args.record_digests:
        record_digests(ip, facts, args.record_digests)
        return 0

    record = measure(ip, facts, args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record, workloads.workload(args.workload, ip).alias)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
