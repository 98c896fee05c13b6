"""The benchmark's per-layer probes must keep finding what they wrap.

``perfbench/spans.py`` wraps package functions by (module, name) from the
outside and reads some of their positional arguments; a rename or a new
signature would silently zero a per-layer metric instead of failing.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import helpers as z
from chevalley_chow import cli
from chevalley_chow.invariants import invariant_slice

PERFBENCH = z.FIXTURE_DIR.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod, attr):
    obj = importlib.import_module(f"chevalley_chow.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_spanned_functions_resolve():
    spans = _spans()
    for mod, attr in spans.SPANNED:
        assert callable(_resolve(mod, attr)), (mod, attr)
    for refs in spans.CACHES.values():
        for mod, attr in refs:
            assert hasattr(_resolve(mod, attr), "cache_info"), (mod, attr)
    # the slice probe reads rank and degree as args[0] and args[2]
    params = list(inspect.signature(invariant_slice).parameters.values())
    assert [p.name for p in params] == ["rank", "generators", "d"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_traced_cli_counts_invariant_slices(tmp_path):
    # a rank-deficient H eliminates degree by degree over slices; a full-rank
    # one with a trivial or Weyl K (the Borel, N(T)) builds none
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    summary = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "cli_shim.py"), str(summary),
         "hchow", "trivial", str(z.FIXTURE_DIR / "product_sl2.json"), "--max-degree", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(summary.read_text())
    assert data["missing"] == {}
    assert data["calls"]["invariant_slice"] > 0
    assert data["counts"]["invariants.slice_dim_total"] > 0
