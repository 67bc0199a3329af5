"""fracdim benchmark: run one workload for a while and print one JSON result.

    python3 perfbench/run.py --workload fif-verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 half the time runs untraced and half traced on the same
seed, and the metrics are per layer.  The line before it records how the
result was made.  Spans, the layer table and the result are also written
under .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process plus at most one child, each single-threaded, on a 2-core
# machine.  Set before numpy loads, whatever the environment held.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters per set-up, import and CLI-process figure
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it

# per-layer metrics: (name, unit); every traced run reports all of them
SELF_TIME_LAYERS = [
    "fif.solve", "fif.chaos",
    "bernstein.build", "bernstein.eval", "bernstein.modulus",
    "functions.sample", "functions.sup_norm_diff", "functions.to_csv", "functions.from_csv",
    "dimension.box_count", "dimension.estimate", "dimension.predict",
    "pipeline.make_anchor", "pipeline.dim_preserving_sequence",
    "pipeline.hausdorff_preserving_sequence", "pipeline.dense_approximant",
    "pipeline.derivative_dim_approximant", "pipeline.extend_function",
    "cli.import", "cli.main", "cli.process", tracing.OP,
]
WORK_COUNTS = [  # (layer, count, metric unit)
    ("fif.solve", "iterations", "count/op"),
    ("fif.solve", "grid_updates", "count/op"),
    ("bernstein.eval", "order_x_points", "count/op"),
    ("dimension.box_count", "calls", "count/op"),
    ("fif.chaos", "points", "count/op"),
    ("functions.to_csv", "bytes", "B/op"),
    ("functions.from_csv", "bytes", "B/op"),
]


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    seconds: float = 0.0  # sum of operation times (busy time)
    durations: list = field(default_factory=list)  # successful operations only
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)
    dim_errs: list = field(default_factory=list)
    approx_errs: list = field(default_factory=list)
    child_rss_kb: int = 0
    nonzero_exits: int = 0

    @property
    def ops_per_s(self):
        return len(self.durations) / self.seconds if self.seconds > 0 else 0.0


def run_phase(wl, seed, seconds, min_rounds, tracer=None):
    """Closed loop with one caller: whole rounds until `seconds` have passed."""
    phase = Phase()
    span_name = "cli.process" if not wl.in_process else tracing.OP
    start = time.perf_counter()
    for ops in wl.rounds(seed):
        if phase.rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
        for op in ops:
            phase.attempted += 1
            raw = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    raw = wl.execute(op)
                else:
                    with tracer.operation(phase.attempted, span_name):
                        raw = wl.execute(op, tracer)
                dt = time.perf_counter() - t0
                outcome = wl.check(op, raw)
            except Exception as exc:  # one failed operation must not end the run
                dt = time.perf_counter() - t0
                outcome = workloads.Outcome(problems=[f"{type(exc).__name__}: {exc}"])
            phase.seconds += dt
            if isinstance(raw, workloads.CliResult):
                phase.child_rss_kb = max(phase.child_rss_kb, raw.maxrss_kb)
                phase.nonzero_exits += raw.code != 0
            if outcome.problems:
                phase.failed += 1
                if len(phase.problems) < 5:
                    phase.problems.extend(outcome.problems)
            else:
                phase.durations.append(dt)
            if phase.rounds < wl.accuracy_rounds:
                if outcome.dim_err is not None:
                    phase.dim_errs.append(outcome.dim_err)
                if outcome.approx_err is not None:
                    phase.approx_errs.append(outcome.approx_err)
        phase.rounds += 1
    return phase


def tail(durations):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(durations)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def setup_probe(name, seed):
    """Set up in this fresh interpreter; report when ready and the import time."""
    wl = workloads.make(name, ROOT, OUT / f"probe-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        importlib.import_module("fracdim")
        import_s = time.perf_counter() - t0
        wl.setup()
        next(iter(wl.rounds(seed)))
        ready = time.monotonic()
    finally:
        shutil.rmtree(OUT / f"probe-{os.getpid()}", ignore_errors=True)
    print(json.dumps({"ready": ready, "import_s": import_s}))


def measure_setup(name, seed):
    """Medians over fresh interpreters of set-up time and of `import fracdim`.

    Set-up runs from spawning the interpreter, through `import fracdim`,
    until the first round's inputs exist.  CLOCK_MONOTONIC is system-wide,
    so the probe's clock reading is comparable with the spawn time taken here.
    """
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(probe["ready"] - spawned)
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def provenance(args):
    try:  # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    versions = {}
    for mod in ("numpy", "scipy", "click"):
        try:
            versions[mod] = importlib.metadata.version(mod)
        except importlib.metadata.PackageNotFoundError:
            versions[mod] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), **versions,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(wl, phase, setup_s):
    if not (phase.dim_errs and phase.approx_errs):
        raise BenchError(f"no accuracy figures, the first rounds failed: {phase.problems}")
    p50 = statistics.median(phase.durations)
    tail_s, tail_pct = tail(phase.durations)
    if wl.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = phase.child_rss_kb / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "ok_frac": (1.0 - phase.failed / phase.attempted, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
        "dim_err_max": (max(phase.dim_errs), "1"),
        "approx_err_max": (max(phase.approx_errs), "1"),
    }
    detail = {"op_tail_percentile": tail_pct, "op_samples": len(phase.durations),
              "rounds": phase.rounds, "fail_frac": phase.failed / phase.attempted,
              "accuracy_ops": len(phase.dim_errs)}
    return metrics, detail


def process_wall():
    """Median wall time of `python -m fracdim.cli --version` in fresh interpreters:
    the fixed cost of one CLI process (start, import, argument handling, exit)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "fracdim.cli", "--version"], cwd=ROOT, env=env,
                       capture_output=True, timeout=120, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(wl, plain, traced, spans, import_s, process_wall_s):
    n_ops = max(traced.attempted, 1)
    totals = tracing.layer_totals(spans)
    metrics = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (totals.get(layer, {}).get("self_s", 0.0) / n_ops, "s/op")
    for layer, count, unit in WORK_COUNTS:
        metrics[f"{layer}.{count}"] = (totals.get(layer, {}).get(count, 0.0) / n_ops, unit)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.process_wall_s"] = (process_wall_s, "s")
    metrics["cli.exit_nonzero"] = (traced.nonzero_exits, "count")
    overhead = plain.ops_per_s - traced.ops_per_s
    metrics["trace.overhead_ops_per_s"] = (overhead, "1/s")
    metrics["trace.overhead_frac"] = (overhead / plain.ops_per_s if plain.ops_per_s else 0.0, "1")
    detail = {"untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": traced.ops_per_s,
              "traced_ops": n_ops, "spans": len(spans)}
    return metrics, detail


def measure(wl, seed, seconds, trace, setup_s, import_s, process_wall_s=None):
    """One measurement of a set-up workload.

    Returns (metrics, detail, phase, tracer): metrics maps name to (value,
    unit); phase carries the attempted and failed counts of the whole run;
    tracer holds the spans of a traced run and is None otherwise.
    """
    if trace == 0:
        phase = run_phase(wl, seed, seconds, wl.min_rounds)
        if not phase.durations:
            raise BenchError(f"every operation failed: {phase.problems}")
        metrics, detail = end_to_end(wl, phase, setup_s)
        return metrics, detail, phase, None
    half = seconds / 2.0
    plain = run_phase(wl, seed, half, 1)
    tracer = tracing.Tracer()
    # cli-cold installs the wrappers in each command, through cli_launcher.py
    with tracing.installed(tracer) if wl.in_process else contextlib.nullcontext():
        traced = run_phase(wl, seed, half, 1, tracer)
    if not (plain.durations and traced.durations):
        raise BenchError(f"every operation failed: {plain.problems + traced.problems}")
    metrics, detail = per_layer(wl, plain, traced, tracer.spans, import_s, process_wall_s)
    both = Phase(attempted=plain.attempted + traced.attempted,
                 failed=plain.failed + traced.failed,
                 problems=plain.problems + traced.problems)
    return metrics, detail, both, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracdim" / "__init__.py").is_file():
        print(f"perfbench: no fracdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    setup_s, import_s = measure_setup(args.workload, args.seed)
    wl = workloads.make(args.workload, ROOT, workdir)
    try:
        wl.setup()
        if wl.in_process:
            import fracdim
            if Path(fracdim.__file__).resolve().parent != (ROOT / "src" / "fracdim").resolve():
                raise BenchError(f"fracdim imported from {fracdim.__file__}")
        record = provenance(args)
        process_wall_s = process_wall() if args.trace else None
        metrics, detail, phase, tracer = measure(wl, args.seed, args.seconds, args.trace,
                                                 setup_s, import_s, process_wall_s)
    except (BenchError, tracing.MissingLayer) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        table = tracing.format_table(tracing.layer_totals(tracer.spans),
                                     detail["traced_ops"])
        (OUT / f"layers-{tag}.txt").write_text(table + "\n")
        print(table, file=sys.stderr)
    record.update(detail, problems=phase.problems[:5])
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({"provenance": record, **result}, indent=1))
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
