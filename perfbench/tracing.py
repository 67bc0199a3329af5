"""Spans around fracdim's layers, recorded from outside the package.

The package is never edited.  Each layer is measured by replacing its
public functions, for the duration of a traced run, with wrappers that
record a span (name, start, end, parent) and a few work counts.  Modules
such as ``fracdim.pipeline`` and ``fracdim.cli`` import functions by name,
so a wrapper is installed under every module attribute that holds the
original object, not only in the defining module.  ``installed`` puts every
original back when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

OP = "bench.op"  # the benchmark's own span around one in-process operation


def _csv_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _from_csv_bytes(args, kwargs, result):
    # args[0] is the class: the wrapper sits under the classmethod descriptor
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _eval_work(order, x):
    return {"order_x_points": int(order) * int(getattr(x, "size", 1))}


def _poly_eval_work(args, kwargs, result):
    return _eval_work(args[0].order, args[1])


def _derivative_eval_work(args, kwargs, result):
    return _eval_work(args[0].order - 1, args[1])


def _func_eval_work(args, kwargs, result):
    return _eval_work(args[0].poly.order, args[1])


def _solve_work(args, kwargs, result):
    iterations = int(getattr(result, "iterations", 0))
    grid = getattr(result, "grid", None)
    points = int(grid.m) + 1 if grid is not None else 0
    return {"iterations": iterations, "grid_updates": iterations * points}


def _chaos_work(args, kwargs, result):
    return {"points": int(len(result))}


# (module, attribute, span name, work counter).  "Class.method" names patch
# the class, so calls through instances are caught as well.
LAYER_FUNCTIONS = [
    ("fracdim.functions", "sample", "functions.sample", None),
    ("fracdim.functions", "sup_norm_diff", "functions.sup_norm_diff", None),
    ("fracdim.functions", "write_xy_csv", "functions.to_csv", _csv_bytes),
    ("fracdim.functions", "GridFunction.from_csv", "functions.from_csv", _from_csv_bytes),
    ("fracdim.bernstein", "bernstein_build", "bernstein.build", None),
    ("fracdim.bernstein", "bernstein_eval", "bernstein.eval", _poly_eval_work),
    ("fracdim.bernstein", "bernstein_derivative_eval", "bernstein.eval", _derivative_eval_work),
    ("fracdim.bernstein", "BernsteinFunc._eval", "bernstein.eval", _func_eval_work),
    ("fracdim.bernstein", "modulus_smoothness", "bernstein.modulus", None),
    ("fracdim.fif", "solve_fixed_point", "fif.solve", _solve_work),
    ("fracdim.fif", "chaos_game", "fif.chaos", _chaos_work),
    ("fracdim.dimension", "predict_box_dim", "dimension.predict", None),
    ("fracdim.dimension", "predict_hausdorff_dim", "dimension.predict", None),
    ("fracdim.dimension", "dimension_equation_root", "dimension.predict", None),
    ("fracdim.dimension", "box_count", "dimension.box_count", None),
    ("fracdim.dimension", "estimate_box_dim", "dimension.estimate", None),
    ("fracdim.pipeline", "make_anchor", "pipeline.make_anchor", None),
    ("fracdim.pipeline", "dim_preserving_sequence", "pipeline.dim_preserving_sequence", None),
    ("fracdim.pipeline", "hausdorff_preserving_sequence", "pipeline.hausdorff_preserving_sequence", None),
    ("fracdim.pipeline", "dense_approximant", "pipeline.dense_approximant", None),
    ("fracdim.pipeline", "derivative_dim_approximant", "pipeline.derivative_dim_approximant", None),
    ("fracdim.pipeline", "extend_function", "pipeline.extend_function", None),
]


class Tracer:
    """Spans of one traced run, kept in memory until written out.

    A span is a dict with id, op (the operation it belongs to), name, parent,
    start, end and optional counts.  Spans are recorded only while an
    operation is open, so checks made between operations leave no trace.
    Spans read back from a child process carry a "source" tag; their ids and
    clock are that process's own, and a child's root spans name their parent
    here through "parent_source" = None.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @property
    def active(self) -> bool:
        return self._op is not None

    @property
    def op_id(self):
        return self._op

    @property
    def current_span_id(self):
        return self._stack[-1]["id"] if self._stack else None

    @contextlib.contextmanager
    def operation(self, op_id, name=OP):
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "op": self._op,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record["counts"] = work(args, kwargs, result)
            return result

        return wrapper


def _fracdim_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "fracdim" or key.startswith("fracdim."))]


class MissingLayer(LookupError):
    """A layer function named in LAYER_FUNCTIONS is not in the package."""


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block.

    A function the package no longer has raises MissingLayer: a layer that
    silently went unmeasured would read as a speed-up.
    """
    undo = []
    try:
        for module_name, attr, name, work in LAYER_FUNCTIONS:
            owner_name, _, meth = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                    original = vars(owner)[meth]
                else:
                    original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                raise MissingLayer(f"{module_name}.{attr} (layer {name}): {exc!r}") from exc
            if owner_name:  # patch the class, so calls through instances are caught
                if isinstance(original, (classmethod, staticmethod)):
                    patched = type(original)(tracer.wrap(original.__func__, name, work))
                else:
                    patched = tracer.wrap(original, name, work)
                setattr(owner, meth, patched)
                undo.append((owner, meth, original))
                continue
            patched = tracer.wrap(original, name, work)
            for mod in _fracdim_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, patched)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def layer_totals(spans):
    """Self seconds, call counts and work counts summed per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            parent_key = (s.get("parent_source", s.get("source")), s["parent"])
            child_time[parent_key] += s["end"] - s["start"]
    totals = defaultdict(lambda: defaultdict(float))
    for s in spans:
        key = (s.get("source"), s["id"])
        row = totals[s["name"]]
        row["self_s"] += (s["end"] - s["start"]) - child_time[key]
        row["calls"] += 1
        for count, value in s.get("counts", {}).items():
            row[count] += value
    return {name: dict(row) for name, row in totals.items()}


def format_table(totals, n_ops):
    """Per-layer self-time table, largest first, normalised per operation."""
    grand = sum(row["self_s"] for row in totals.values()) or 1.0
    lines = [f"{'layer':<40} {'self s/op':>12} {'share':>7} {'calls/op':>9}"]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<40} {row['self_s'] / n_ops:>12.6f} {row['self_s'] / grand:>7.1%} "
            f"{row['calls'] / n_ops:>9.2f}"
        )
    return "\n".join(lines)
