"""Smoke test of the benchmark at tiny sizes; it asserts no timing.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, with tiny decks and
one pass each, and checks that every metric BENCHMARK.json names is
emitted, that the correctness gate judged every op, and that the gate
rejects a wrong answer and a broken CLI contract.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7


def check_runs(spec: dict) -> None:
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    assert list(run.END_TO_END) == names[0], "end-to-end metrics differ from BENCHMARK.json"
    assert list(run.PER_LAYER) == names[1], "per-layer metrics differ from BENCHMARK.json"
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, report, _ = run.run(workload, SEED, 0.0, bool(trace), tiny=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert list(result["metrics"]) == names[trace], (workload, trace)
            assert result["correct"], (workload, report["failures"])
            assert report["gate_checks"] == result["attempted"] > 0, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], float), (workload, name, metric)
            json.dumps(result, allow_nan=False)
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)


def check_gate_rejects() -> None:
    import workloads as W

    cases = W.qubit(SEED, tiny=True) + W.dense_pair(SEED, tiny=True)
    for case in cases:
        case.reference = (lambda ref: lambda p: ref(p + 0.01))(case.reference)
    m = W.measure_in_process(cases, seconds=0.0)
    assert len(m.failures) == len(cases), m.failures

    broken = W.Invocation("probe", [], (0,))
    assert W.judge(broken, 0, "", "") is None
    assert W.judge(broken, 2, "", "error: bad input") is not None
    assert W.judge(broken, 0, "", "Traceback (most recent call last):\n  boom") is not None
    assert W.is_known_defect("malformed huge-entries", "traceback: ConvergenceError: x")
    assert not W.is_known_defect("malformed huge-entries", "exit code 4")
    print("ok  gate rejects wrong values, wrong exit codes and tracebacks", flush=True)


def main() -> int:
    if not (run.SRC / "qdiscrim" / "__init__.py").is_file():
        print(f"smoke: no qdiscrim package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.one_blas_thread()
    run.OUT.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_gate_rejects()
    check_runs(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
