"""qdiscrim benchmark: certified-solve latency and throughput on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each exists):

    qubit       general-prior qubit ensembles, N 4..16 (the shifted-ball
                dual), equal-prior ones, N 3..39 (Welzl's ball and convex
                weights), and closed-form family members
    dense-pair  two-state ensembles, d 4..32: Helstrom and the eigensolver
    cli         sequential `python -m qdiscrim.cli` processes, malformed
                documents included

An in-process op is one request: ensemble JSON through ensemble_from_json,
solve, verify_kkt at ANALYTIC_TOL, and the solution and certificate
serialized to JSON, i.e. `qdiscrim solve --verify` without process start-up
or file I/O. A `cli` op is one child process.

A run makes whole passes over its workload's deck for about --seconds,
ending within half a pass of it. Host speed on a shared machine swings
by up to half over tens of seconds and minutes, so every end-to-end time
(op latencies and setup_s) is scaled to the speed of a reference host by
a calibration loop timed beside it (workloads.calibrate); the report line
also gives the raw figures and the speed factors. In process, the
latency metrics are over each op's median scaled time across its
passes, some ten in a 30 s run. A `cli` run makes only two or three
passes of calls that all cost about one process start-up, so there
every call counts. ops_per_s is one client's throughput at the reported
op times: ops over the sum of their times. The per-layer times taken
from a traced run's spans are raw wall time, for shares within a run;
process.* come from the scaled set-up probes. BLAS runs on one thread,
in the benchmark and in its child processes, as one client on a host of
few cores should.

The package is imported from src/ of the checkout this file sits in. The
run prints a report line, then as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, or the per-layer metrics of a traced run with --trace 1. The
report, and the spans of a traced run, are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("qubit", "dense-pair", "cli")

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "operators.self_ms": "ms",
    "operators.DensityOperator.calls": "count/op",
    "operators.DensityOperator.self_ms": "ms",
    "operators.HermitianOperator.calls": "count/op",
    "operators.negative_part.self_ms": "ms",
    "operators.nonnegative_eigenprojector.self_ms": "ms",
    "bloch.self_ms": "ms",
    "bloch.shifted_ball_dual.self_ms": "ms",
    "bloch.min_enclosing_ball.self_ms": "ms",
    "bloch.convex_weights_for_center.self_ms": "ms",
    "solve.self_ms": "ms",
    "solve.complementary_states.self_ms": "ms",
    "solve.reconstruct_povm.self_ms": "ms",
    "solve.helstrom_two_state.self_ms": "ms",
    "solve.solve_qubit.self_ms": "ms",
    "solve.solve_qubit_equal_priors.self_ms": "ms",
    "solve.errors": "count/op",
    "certify.fails": "count/op",
    "certify.worst_residual": "abs",
    "certify.self_ms": "ms",
    "certify.verify_kkt.self_ms": "ms",
    "serialize.self_ms": "ms",
    "serialize.ensemble_from_json.self_ms": "ms",
    "serialize.solution_to_json.self_ms": "ms",
    "serialize.round_floats.self_ms": "ms",
    "factory.self_ms": "ms",
    "factory.certified_share": "ratio",
    "oracle.self_ms": "ms",
    "cli.main_ms": "ms",
    "process.interpreter_ms": "ms",
    "process.import_ms": "ms",
    "trace.overhead_share": "ratio",
}

# Medians of fresh-interpreter imports. The benchmark process imports the
# package first, so the bytecode cache exists, as it does once installed.
SETUP_SAMPLES = 5
BARE_SAMPLES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qdiscrim; "
    "print(time.perf_counter() - t); print(qdiscrim.__file__)"
)


@dataclass
class Setup:
    import_s: float
    interpreter_s: float
    samples: list[float]


@dataclass
class Trace:
    spans: list
    ops: list[tuple[str, int]]  # per traced op: group, span count after it
    overhead: float


def one_blas_thread() -> None:
    """Run BLAS on one thread here and in child processes; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def measure_setup(samples: int) -> Setup:
    """Time `import qdiscrim` and a bare interpreter in fresh processes,
    scaled to the reference host's speed like every op time."""
    from workloads import child_env, speed_scale

    env = child_env(SRC)

    def probe() -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, location = done.stdout.split()
        if not Path(location).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"perfbench: imported qdiscrim from {location}, not from {SRC}")
        return float(seconds)

    def bare() -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, timeout=120, check=True)
        return perf_counter() - start

    imports = [speed_scale(probe) for _ in range(samples)]
    bares = [speed_scale(bare) for _ in range(BARE_SAMPLES)]
    return Setup(median(imports), median(bares), imports)


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Returns (value, percentile, samples beyond). With 20 samples or fewer
    that percentile would not lie above the median, so the maximum is
    returned as the 100th.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100, 0
    percentile = 100 * (n - 10) // n
    rank = -(-percentile * n // 100)
    return xs[rank - 1], percentile, n - rank


def flatten(span_lists: list[list]) -> list:
    """Concatenate per-process span lists, shifting parent indices."""
    from tracer import PARENT

    spans = []
    for part in span_lists:
        offset = len(spans)
        for span in part:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            spans.append(span)
    return spans


def self_ms_by_group(trace: Trace, top: int = 4) -> dict:
    """Per op group, the functions with the most self time, in ms per op."""
    from tracer import NAME, self_times

    own = self_times(trace.spans)
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    start = 0
    for group, end in trace.ops:
        bucket = totals.setdefault(group, {})
        counts[group] = counts.get(group, 0) + 1
        for span, seconds in zip(trace.spans[start:end], own[start:end]):
            bucket[span[NAME]] = bucket.get(span[NAME], 0.0) + seconds
        start = end
    return {
        group: {
            "ops": counts[group],
            "self_ms": {name: bucket[name] * 1e3 / counts[group]
                        for name in sorted(bucket, key=bucket.get, reverse=True)[:top]},
        }
        for group, bucket in sorted(totals.items())
    }


def layer_metrics(trace: Trace, setup: Setup) -> tuple[dict, dict]:
    """Per-op layer metrics from the traced run, and the census they add."""
    from tracer import LAYERS, NAME, NOTE, summarize

    ops = len(trace.ops)
    summary = summarize(trace.spans)
    values = {f"{layer}.self_ms": summary["by_layer"].get(layer, 0.0) * 1e3 / ops
              for layer in LAYERS}
    for name, entry in summary["by_name"].items():
        values[f"{name}.self_ms"] = entry["self_s"] * 1e3 / ops
        values[f"{name}.calls"] = entry["calls"] / ops

    def notes(name):
        return [span[NOTE] for span in trace.spans if span[NAME] == name and span[NOTE] is not None]

    kkt = notes("certify.verify_kkt")
    generated = notes("factory.generate_from_symmetry_operator")
    hull_sizes = notes("bloch.convex_weights_for_center")
    worst = max((residual for _, residual in kkt), default=0.0)
    values.update({
        "solve.errors": summary["raised"].get("solve", 0) / ops,
        "certify.fails": sum(not passed for passed, _ in kkt) / ops,
        "certify.worst_residual": worst,
        "factory.certified_share": sum(generated) / len(generated) if generated else 0.0,
        "cli.main_ms": summary["by_name"].get("cli.main", {}).get("total_s", 0.0) * 1e3 / ops,
        "process.interpreter_ms": setup.interpreter_s * 1e3,
        "process.import_ms": setup.import_s * 1e3,
        "trace.overhead_share": trace.overhead,
    })
    hull = {str(size): hull_sizes.count(size) / ops for size in sorted(set(hull_sizes))}
    hull["none"] = 1.0 - len(hull_sizes) / ops
    extra = {
        "convex_weights_points": hull,
        "certify_margin": 1e-8 - worst,
        "kkt_calls": len(kkt),
        "generated": len(generated),
        "traced_ops": ops,
        "self_ms_by_function": {name: entry["self_s"] * 1e3 / ops
                                for name, entry in sorted(summary["by_name"].items())},
        "self_ms_by_group": self_ms_by_group(trace),
    }
    return {name: values.get(name, 0.0) for name in PER_LAYER}, extra


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    import workloads as W
    from tracer import Tracer

    cases = W.deck(workload, seed, tiny)
    W.certified_solve(min(cases, key=lambda case: len(case.doc)).doc)  # settle lazy set-up
    if not trace:
        m = W.measure_in_process(cases, seconds)
        m.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return m, None
    tracer = Tracer()
    tracer.install()
    m = W.measure_in_process(cases, seconds, tracer)
    return m, Trace(tracer.spans, m.traced_ops, m.tracing_overhead())


def run_cli(seed: int, seconds: float, trace: bool):
    import workloads as W

    workdir = OUT / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        invocations = W.cli_invocations(seed, workdir)
        span_lists = [] if trace else None
        m = W.measure_cli(invocations, ROOT, SRC, workdir, seconds, span_lists)
        if not trace:
            return m, None
        return m, Trace(flatten(span_lists), m.traced_ops, m.tracing_overhead())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _blas_threads():
    """OpenBLAS thread count of the loaded numpy, when it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "git_commit": commit,
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (result line, report, trace or None)."""
    import workloads as W

    setup = measure_setup(1 if tiny else SETUP_SAMPLES)
    if workload == "cli":
        m, traced = run_cli(seed, seconds, trace)
    else:
        m, traced = run_in_process(workload, seed, seconds, trace, tiny)

    attempted, failed = m.attempted, len(m.failures)
    correct = all(W.is_known_defect(label, reason) for label, reason in m.failures)
    if workload == "cli":
        samples, raw = m.scaled(), m.latencies
    else:
        samples, raw = m.per_op_medians(m.scaled()), m.per_op_medians(m.latencies)
    tail_value, tail_percentile, beyond = tail(samples)
    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "passes": m.passes,
        "wall_s": m.wall,
        "gate_checks": m.gate_checks,
        "fail_share": failed / attempted,
        "failures": sorted(set(m.failures))[:20],
        "known_defects": W.KNOWN_DEFECTS,
        "tail": {"percentile": tail_percentile, "samples": len(samples), "beyond": beyond},
        "pass_walls_s": m.pass_walls,
        "raw": {"latency_p50_ms": median(raw) * 1e3, "latency_tail_ms": tail(raw)[0] * 1e3,
                "ops_per_s": len(raw) / sum(raw)},
        "host_speed_factor": {"min": min(m.scales), "median": median(m.scales),
                              "max": max(m.scales)},
        "setup_samples_s": setup.samples,
        "census": W.census_shares(m.census),
        # Written to .bench_out/ only, not printed.
        "samples": {"latencies_s": m.latencies, "scales": m.scales},
    }
    if traced is None:
        values = {
            "latency_p50_ms": median(samples) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "ops_per_s": len(samples) / sum(samples),
            "ok_share": 1.0 - failed / attempted,
            "setup_s": setup.import_s,
            "peak_rss_mb": m.peak_rss_kb / 1024,
        }
        units = END_TO_END
    else:
        values, extra = layer_metrics(traced, setup)
        report.update(extra)
        units = PER_LAYER
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, report, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdiscrim" / "__init__.py").is_file():
        print(f"perfbench: no qdiscrim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    one_blas_thread()

    OUT.mkdir(exist_ok=True)
    result, report, traced = run(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"report": report, "result": result}))
    del report["samples"]
    if traced is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(traced.spans))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
