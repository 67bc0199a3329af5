"""Self-tests of the benchmark's own code (about half a minute).

    python -m pytest perfbench -q

Tiny runs keep every code path of a workload but cut its sizes (grid
resolution, Bernstein order) and run a single round.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {kind: {m["name"]: m["unit"] for m in SPEC[kind]} for kind in ("end_to_end", "per_layer")}


def shrink(op):
    if isinstance(op, workloads.FifOp):
        return dataclasses.replace(op, m=2 ** 14, j_max=11)
    if isinstance(op, workloads.BoxOp):
        return dataclasses.replace(op, n=min(op.n, 8), m=2 ** 12)
    if isinstance(op, workloads.SideOp):
        return dataclasses.replace(op, m=2 ** 13)
    return op


class Tiny:
    """One round of a workload, with small operations."""

    min_rounds = 1
    accuracy_rounds = 1

    def __init__(self, wl):
        self.wl = wl

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def rounds(self, seed):
        for ops in self.wl.rounds(seed):
            yield [shrink(op) for op in ops]


def tiny_run(name, seed, trace, tmp_path):
    wl = workloads.make(name, ROOT, tmp_path / "work")
    wl.setup()
    return run.measure(Tiny(wl), seed, 0.0, trace,
                       setup_s=1.0, import_s=1.0, process_wall_s=1.0)


def fingerprint(ops):
    return json.dumps([dataclasses.asdict(op) for op in ops],
                      default=lambda o: o.tolist() if hasattr(o, "tolist") else str(o))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_named_metric(name, trace, tmp_path):
    metrics, detail, phase, tracer = tiny_run(name, 1, trace, tmp_path)
    assert phase.failed == 0, phase.problems
    units = UNITS["per_layer" if trace else "end_to_end"]
    assert {k: u for k, (_, u) in metrics.items()} == units
    if trace:
        assert tracer.spans
    else:
        assert all(value > 0 for value, _ in metrics.values())


def test_seeds_change_inputs_but_not_metric_names(tmp_path):
    a, *_ = tiny_run("fif-verify", 1, 0, tmp_path)
    b, *_ = tiny_run("fif-verify", 2, 0, tmp_path)
    assert set(a) == set(b)
    assert a["dim_err_max"] != b["dim_err_max"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    wl = workloads.make(name, ROOT, tmp_path)
    wl.setup()

    def first_round(seed):
        return fingerprint(next(iter(wl.rounds(seed))))

    assert first_round(1) == first_round(1)
    assert first_round(1) != first_round(2)


def _bindings():
    import fracdim.cli  # noqa: F401  (load every module that imports by name)

    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "fracdim" or key.startswith("fracdim."):
            for attr, value in vars(mod).items():
                out[(key, attr)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for meth, member in vars(value).items():
                        out[(key, attr, meth)] = member
    return out


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_are_installed_everywhere_and_restored():
    import fracdim.cli
    import fracdim.fif
    import fracdim.pipeline

    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for mod in (fracdim, fracdim.fif, fracdim.pipeline, fracdim.cli):
            assert mod.solve_fixed_point.__wrapped__ is before[("fracdim.fif", "solve_fixed_point")]
        during = _bindings()
        for module_name, attr, _, _ in tracing.LAYER_FUNCTIONS:
            key = (module_name, *attr.split("."))
            original, patched = before[key], during[key]
            if isinstance(original, (classmethod, staticmethod)):
                original, patched = original.__func__, patched.__func__
            assert patched.__wrapped__ is original, key
    assert _same(before, _bindings())
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            raise RuntimeError("the block failed")
    assert _same(before, _bindings())


def test_a_missing_layer_function_fails_loudly(monkeypatch):
    import fracdim.fif

    before = _bindings()
    monkeypatch.delattr(fracdim.fif, "chaos_game")
    with pytest.raises(tracing.MissingLayer, match="chaos_game"):
        with tracing.installed(tracing.Tracer()):
            pass
    monkeypatch.undo()
    assert _same(before, _bindings())


def test_self_times_partition_the_operation():
    import fracdim as fd

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.operation(1):
            fd.dim_preserving_sequence(fd.Polynomial([0.0, 0.2, 1.0]), 1.5, 4, m=2 ** 10)
    names = {s["id"]: s["name"] for s in tracer.spans}
    parents = {(s["name"], names.get(s["parent"])) for s in tracer.spans}
    assert ("fif.solve", "pipeline.dim_preserving_sequence") in parents
    assert ("bernstein.eval", "fif.solve") in parents  # the solver evaluates seed and base
    totals = tracing.layer_totals(tracer.spans)
    op = tracer.spans[0]
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(op["end"] - op["start"])
    evals = [s for s in tracer.spans if s["name"] == "bernstein.eval"]
    assert sum(s["counts"]["order_x_points"] for s in evals) == totals["bernstein.eval"]["order_x_points"]


def test_layer_totals_subtract_children_across_processes():
    spans = [
        {"id": 0, "name": "cli.process", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 0, "name": "cli.main", "parent": 0, "parent_source": None, "source": "c",
         "start": 100.0, "end": 104.0},
        {"id": 1, "name": "fif.solve", "parent": 0, "source": "c", "start": 101.0, "end": 103.0,
         "counts": {"iterations": 7}},
    ]
    totals = tracing.layer_totals(spans)
    assert totals["cli.process"]["self_s"] == 6.0
    assert totals["cli.main"]["self_s"] == 2.0
    assert totals["fif.solve"] == {"self_s": 2.0, "calls": 1, "iterations": 7}


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(1 for v in range(100) if v > value) == run.TAIL_BEYOND


def test_exact_recursion_matches_the_solver_on_grid_nodes():
    import fracdim as fd

    knots, ys, alpha = workloads.zigzag_affine(np.random.default_rng(0), 4, 1.6)
    fif = fd.solve_fixed_point(fd.make_affine_spec(knots, ys, alpha), m=2 ** 12)
    nodes = np.arange(0, 2 ** 12, 37) / 2 ** 12
    exact = workloads.exact_affine_fif(knots, ys, alpha, nodes)
    assert np.max(np.abs(fif(nodes) - exact)) <= 1e-12


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "fif-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
