"""The benchmark's tracer must still find every entry point it wraps.

``bench/tracing.py`` rebinds package functions by name and wraps each
strategy's ``act`` by its return annotation.  Renaming or deleting one of
those functions, or dropping an annotation, breaks traced benchmark runs;
this test catches that without running a benchmark.
"""

import importlib.util
from pathlib import Path

import intermittent_pursuit as ip
import intermittent_pursuit.cli  # noqa: F401  (binds ip.cli, which the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    originals = {(m, a): getattr(getattr(ip, m), a) for m, a, _, _ in tracing.FUNCTIONS}
    tracer = tracing.Tracer()
    try:
        tracer.install(ip)
        for (module, attr), original in originals.items():
            assert getattr(getattr(ip, module), attr) is not original, f"{module}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(getattr(ip, module), attr) is original, f"{module}.{attr}"


def test_traced_value_grid_counts_its_layers(tmp_path, capsys):
    """A traced ``value-grid`` reaches ``value_bound`` and ``fmt_g`` through the
    names the tracer rebinds, as the benchmark's smoke check requires."""
    tracer = _load_tracing().Tracer()
    tracer.install(ip)
    try:
        code = ip.cli.main(["value-grid", "--nu", "0.7", "--r-cap", "0.1",
                            "--rho-max", "3", "--rho-steps", "4", "--tau-max", "6",
                            "--tau-steps", "3", "--ell", "0:1", "--out", str(tmp_path / "grid.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == f"24 rows -> {tmp_path / 'grid.csv'}\n"
    metrics = tracer.layer_metrics()
    assert metrics["value.value_bound.calls"] > 0
    assert metrics["core.fmt_g.calls"] > 0
    assert tracer.check_nesting() == []
