"""Package-level contracts: the public namespace and a single-process import."""

import ast
import inspect
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import intermittent_pursuit as ip
from intermittent_pursuit import core, engine, strategies, value, verify


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
