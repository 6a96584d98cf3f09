"""Seeded workloads, the certified-solve op, and its correctness gate.

Every workload is a deck of cases built from the benchmark seed. The
seed picks the random states, priors and family parameters; the sizes
in a deck are fixed, so runs with different seeds do the same amount of
work. A run replays whole passes over its deck for its --seconds, one
op at a time (closed loop, one client), so every run and every commit
sees the same ops in the same proportions and the percentiles stay
comparable.

Every op is checked outside its timed interval: the certificate must
pass at certify.ANALYTIC_TOL, the emitted document must carry that
verdict and value, and the value must agree with a reference that never
uses the package's Jacobi eigensolver.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

from qdiscrim import certify, families, oracle, serialize
from qdiscrim.solve import WeightedEnsemble

qsolve = importlib.import_module("qdiscrim.solve")

ORACLE_RESOLUTION = 1e-3
# The grid oracle upper-bounds the optimum by at most sqrt(3) * resolution.
ORACLE_GAP = math.sqrt(3.0) * ORACLE_RESOLUTION
# Allowance for floating-point evaluation when the grid hits the optimum.
FLOAT_SLACK = 1e-12
CLOSED_FORM_TOL = 1e-10
HELSTROM_TOL = 1e-10
# CLI documents carry 9 significant digits, values and sweep parameters alike.
PRINTED_TOL = 2e-9
UNIFORM_PRIOR_TOL = 1e-10
CHILD_TIMEOUT_S = 120.0

# Deck sizes: (full, tiny); the tiny decks serve the smoke test. A run
# takes each op's median time over its passes, so a full pass is kept
# near three seconds for some ten passes in a 30 s run. Every
# general-prior size is present so that op costs rise smoothly through the
# deck and order statistics do not sit on a jump between two sizes;
# equal-prior sizes step by three up to 39.
SHIFTED_SIZES = (tuple(range(4, 17)), (4, 5))
BALL_SIZES = (tuple(range(3, 41, 3)), (3, 5))
# (dimension, pure pairs, mixed pairs). Op cost varies by a fifth between
# pairs of one size; the ten d=16 pure pairs, which cost about as much as
# the d=8 mixed ones, hold the median and the tail, so that those sit on
# many pairs' costs. No d=64 pair and no d=32 mixed pair: at one to seven
# seconds each they would take half a pass or more, leaving too few
# passes. The d=16 mixed, d=24 and d=32 pairs carry the eigensolver cost.
DENSE_SIZES = (
    ((4, 3, 3), (8, 3, 4), (16, 10, 4), (24, 1, 1), (32, 1, 0)),
    ((4, 1, 1), (8, 1, 1)),
)

Reference = Callable[[float], "str | None"]


@dataclass
class Case:
    """One ensemble document, its census labels and its reference check."""

    label: str
    doc: str
    census: dict
    reference: Reference


# ------------------------------------------------------- host speed ---

# Host speed on a shared machine swings by up to half over tens of seconds
# and minutes, which no statistic within a run can remove. Each op is
# therefore followed by a fixed calibration loop, outside its timed
# interval, and its time is scaled by the loop's reference time over the
# mean of the loop's times on either side of it: op times read as on the
# reference host (a 2-core Xeon KVM guest in a quiet spell), where the
# loop's best-of-three time is CALIBRATION_REFERENCE_S. The loop is
# benchmark code, so a change to the package cannot move it.
CALIBRATION_REFERENCE_S = 1.7e-4
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((6, 6))
_CALIBRATION_MATRIX = _CALIBRATION_MATRIX + _CALIBRATION_MATRIX.T


def _calibration_loop() -> float:
    """Interpreter work and small-array numpy calls, the mix of an op."""
    total, table = 0.0, {}
    for i in range(300):
        total += (i * 7) % 13
        table[i & 31] = total
    matrix = _CALIBRATION_MATRIX
    for _ in range(15):
        matrix = np.tanh(matrix @ _CALIBRATION_MATRIX * 0.1)
        np.linalg.eigvalsh(matrix + matrix.T)
    return total


def calibrate(repeats: int = 3) -> float:
    """Best of `repeats` timings of the calibration loop, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - start)
    return best


def speed_factor(before: float, after: float) -> float:
    """The scale for a time measured between two calibrate() results."""
    return 2 * CALIBRATION_REFERENCE_S / (before + after)


def speed_scale(timed: Callable[[], float]) -> float:
    """Call `timed`, which returns a time it measured, and scale that time
    by the calibration loop's times on either side of the call."""
    before = calibrate()
    seconds = timed()
    return seconds * speed_factor(before, calibrate())


@dataclass
class Measurement:
    """What a run of whole passes over a deck observed.

    latencies holds untraced ops in run order, pass after pass, and scales
    the speed_factor of each; traced holds the traced
    repeats of a traced run; traced_ops each traced op's group and the
    span count after it.
    """

    latencies: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    traced_ops: list[tuple[str, int]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    census: list[dict] = field(default_factory=list)
    gate_checks: int = 0
    passes: int = 0
    wall: float = 0.0
    pass_walls: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced)

    def another_pass_fits(self, start: float, seconds: float) -> bool:
        """Whether a pass like the last one ends within half a pass of the
        run's `seconds` from perf_counter() time `start`."""
        return perf_counter() - start + self.pass_walls[-1] / 2 < seconds

    def add(self, latency: float, before: float, after: float) -> None:
        """Record an untraced op and the calibrate() results around it."""
        self.latencies.append(latency)
        self.scales.append(speed_factor(before, after))

    def scaled(self) -> list[float]:
        """Untraced op times at the reference host's speed."""
        return [t * s for t, s in zip(self.latencies, self.scales)]

    def per_op_medians(self, values: list[float]) -> list[float]:
        """Each op's median value over the passes, for values in run order."""
        per_pass = len(values) // self.passes
        return [median(values[i::per_pass]) for i in range(per_pass)]

    def tracing_overhead(self) -> float:
        """(traced - untraced) / untraced op time over the same ops."""
        return sum(self.traced) / sum(self.latencies) - 1.0


def _doc(ensemble: WeightedEnsemble) -> str:
    return json.dumps(serialize.ensemble_to_json(ensemble))


def _path(ensemble: WeightedEnsemble) -> str:
    """The solver path `solve` dispatches this ensemble to."""
    if ensemble.size == 2:
        return "helstrom"
    uniform = np.max(np.abs(ensemble.priors - 1.0 / ensemble.size)) <= UNIFORM_PRIOR_TOL
    return "ball" if uniform else "shifted"


def _census(ensemble: WeightedEnsemble, kind: str) -> dict:
    return {"N": ensemble.size, "d": ensemble.dim, "kind": kind, "path": _path(ensemble)}


def _oracle_reference(ensemble: WeightedEnsemble, slack: float = FLOAT_SLACK) -> Reference:
    value = oracle.dual_grid_oracle(ensemble, ORACLE_RESOLUTION)

    def check(p_guess: float):
        if -slack <= value - p_guess <= ORACLE_GAP + slack:
            return None
        return f"grid oracle {value!r} minus p_guess {p_guess!r} outside [0, {ORACLE_GAP:.3e}]"

    return check


def _closed_form_reference(ensemble: WeightedEnsemble, name: str, value: float,
                           tol: float = CLOSED_FORM_TOL, slack: float = FLOAT_SLACK) -> Reference:
    grid = _oracle_reference(ensemble, slack)

    def check(p_guess: float):
        if abs(p_guess - value) > tol:
            return f"{name} closed form {value!r} differs from p_guess {p_guess!r}"
        return grid(p_guess)

    return check


def helstrom_value(ensemble: WeightedEnsemble) -> float:
    """(1 + ||q1 rho1 - q2 rho2||_1) / 2 through numpy's LAPACK eigvalsh."""
    q1, q2 = ensemble.priors
    rho1, rho2 = (s.matrix for s in ensemble.states)
    return (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(q1 * rho1 - q2 * rho2))))) / 2.0


def _helstrom_reference(ensemble: WeightedEnsemble, tol: float = HELSTROM_TOL) -> Reference:
    value = helstrom_value(ensemble)

    def check(p_guess: float):
        if abs(p_guess - value) > tol:
            return f"Helstrom value {value!r} differs from p_guess {p_guess!r}"
        return None

    return check


def _seeds(rng: np.random.Generator):
    while True:
        yield int(rng.integers(2**31))


def _random_qubit_cases(seed: int, sizes, uniform: bool) -> list[Case]:
    seeds = _seeds(np.random.default_rng([seed, 1 if uniform else 0]))
    cases = []
    for n in sizes:
        for pure in (True, False):
            ensemble = oracle.random_ensemble(2, n, pure, next(seeds))
            if uniform:
                ensemble = WeightedEnsemble(np.full(n, 1.0 / n), ensemble.states)
            kind = "pure" if pure else "mixed"
            cases.append(
                Case(f"N={n} {kind}", _doc(ensemble), _census(ensemble, kind),
                     _oracle_reference(ensemble))
            )
    return cases


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _family_cases(seed: int) -> list[Case]:
    """Family members with closed-form optima, placed by the seed."""
    rng = np.random.default_rng([seed, 2])
    base = rng.uniform(0.0, 2 * math.pi)
    narrow, wide, obtuse = rng.uniform(0.3, 0.9), rng.uniform(0.9, 1.4), rng.uniform(1.8, 2.8)
    purity = rng.uniform(0.3, 1.0)
    pair_angle = rng.uniform(0.2, 1.3)
    tetrahedron_dirs = families.REGULAR_TETRAHEDRON @ _rotation(rng).T
    members = [
        ("trine", families.trine(base), 2 / 3),
        ("isosceles", families.isosceles_triple(narrow, base), (1 + math.sin(narrow)) / 3),
        ("isosceles", families.isosceles_triple(wide, base), (1 + math.sin(wide)) / 3),
        ("isosceles", families.isosceles_triple(obtuse, base), 2 / 3),
        ("tetrahedron", families.inscribed_tetrahedron(purity, tetrahedron_dirs), (1 + purity) / 4),
        ("orthogonal-pairs", families.orthogonal_pairs(pair_angle, base), 1 / 2),
    ]
    return [
        Case(name, _doc(ens), _census(ens, name), _closed_form_reference(ens, name, value))
        for name, ens, value in members
    ]


def qubit(seed: int, tiny: bool = False) -> list[Case]:
    """General-prior ensembles (the shifted-ball dual), equal-prior ensembles
    (Welzl's ball, then convex weights) and closed-form family members."""
    return (
        _random_qubit_cases(seed, SHIFTED_SIZES[tiny], uniform=False)
        + _random_qubit_cases(seed, BALL_SIZES[tiny], uniform=True)
        + _family_cases(seed)
    )


def dense_pair(seed: int, tiny: bool = False) -> list[Case]:
    seeds = _seeds(np.random.default_rng([seed, 3]))
    cases = []
    for dim, pure_count, mixed_count in DENSE_SIZES[tiny]:
        for pure, count in ((True, pure_count), (False, mixed_count)):
            kind = "pure" if pure else "mixed"
            for _ in range(count):
                ensemble = oracle.random_ensemble(dim, 2, pure, next(seeds))
                cases.append(
                    Case(f"d={dim} {kind}", _doc(ensemble), _census(ensemble, kind),
                         _helstrom_reference(ensemble))
                )
    return cases


IN_PROCESS = {"qubit": qubit, "dense-pair": dense_pair}


def deck(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The workload's cases in a seeded random order.

    Host speed drifts over seconds; spreading every size over the whole
    pass makes each percentile sample the run's average speed, not the
    speed of the few seconds in which one size would otherwise run.
    """
    cases = IN_PROCESS[workload](seed, tiny)
    order = np.random.default_rng([seed, 5]).permutation(len(cases))
    return [cases[i] for i in order]


def certified_solve(doc: str):
    """One request: ensemble JSON in, certified solution JSON out.

    This is `qdiscrim solve --verify` at ANALYTIC_TOL without process
    start-up or file I/O. Every call goes through a module attribute so
    that the traced run's wrappers see it.
    """
    ensemble = serialize.ensemble_from_json(json.loads(doc))
    solution = qsolve.solve(ensemble)
    cert = certify.verify_kkt(
        ensemble, solution.symmetry_op, solution.povm, tol=certify.ANALYTIC_TOL
    )
    out = serialize.solution_to_json(solution)
    out["certificate"] = serialize.certificate_to_json(cert)
    return json.dumps(serialize.round_floats(out)), solution, cert


def gate(case: Case, text: str, solution, cert) -> "str | None":
    """Why an op's output is wrong, or None when it passes every check."""
    if not cert.passed:
        return f"certificate fails at {certify.ANALYTIC_TOL}: max residual {cert.max_residual():.3e}"
    emitted = json.loads(text)
    if emitted["certificate"]["verdict"] != "pass":
        return "emitted certificate verdict is not pass"
    if abs(emitted["p_guess"] - solution.p_guess) > PRINTED_TOL:
        return "emitted p_guess differs from the solution"
    return case.reference(solution.p_guess)


def _modes(index: int, traced: bool) -> tuple[bool, ...]:
    """Untraced only; or untraced and traced, the order alternating by op."""
    if not traced:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def measure_in_process(cases: list[Case], seconds: float, tracer=None) -> Measurement:
    """Replay whole passes over the deck for about `seconds`, at least one,
    timing each op and gating its output.

    With a tracer, every op runs twice, untraced and traced back to back,
    so that drift in host speed cancels out of the tracing overhead.
    """
    m = Measurement()
    before = calibrate()
    start = pass_start = perf_counter()
    while True:
        for index, case in enumerate(cases):
            for traced in _modes(index, tracer is not None):
                if traced:
                    tracer.active = True
                t0 = perf_counter()
                try:
                    text, solution, cert = certified_solve(case.doc)
                    reason = None
                except Exception as exc:  # a raising op is a failed op
                    reason = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0
                if traced:
                    tracer.active = False
                    m.traced.append(elapsed)
                    group = f"{case.census['path']} {case.census['kind']}"
                    m.traced_ops.append((group, len(tracer.spans)))
                after = calibrate()
                if not traced:
                    m.add(elapsed, before, after)
                before = after
                support = None
                if reason is None:
                    m.gate_checks += 1
                    reason = gate(case, text, solution, cert)
                    support = len(solution.support)
                if reason is not None:
                    m.failures.append((case.label, reason))
                m.census.append(dict(case.census, support=support))
        m.passes += 1
        m.pass_walls.append(perf_counter() - pass_start)
        pass_start = perf_counter()
        if not m.another_pass_fits(start, seconds):
            break
    m.wall = perf_counter() - start
    return m


# ---------------------------------------------------------------- cli ---

@dataclass
class Invocation:
    """One CLI call, its allowed exit codes and a check of what it wrote.

    out, when given, is the file the call writes; it is removed before the
    call so that a check never reads an earlier call's output.
    """

    label: str
    argv: list[str]
    expect: tuple[int, ...]
    check: "Callable[[int, str], str | None] | None" = None
    census: dict = field(default_factory=dict)
    out: "Path | None" = None


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _solution_check(out: Path, reference: Reference):
    def check(code: int, stdout: str):
        doc = json.loads(out.read_text(encoding="utf-8"))
        if doc["certificate"]["verdict"] != "pass":
            return f"certificate verdict {doc['certificate']['verdict']!r}"
        return reference(doc["p_guess"])

    return check


def _verdict_check(code: int, stdout: str):
    verdict = json.loads(stdout)["verdict"]
    return None if verdict == "pass" else f"verify verdict {verdict!r}"


def _generate_check(out: Path, states: int):
    def check(code: int, stdout: str):
        doc = json.loads(out.read_text(encoding="utf-8"))
        if len(doc["states"]) != states:
            return f"generated {len(doc['states'])} states, expected {states}"
        if abs(sum(doc["priors"]) - 1.0) > 1e-8:
            return "generated priors do not sum to 1"
        if doc["certified"] != (code == 0):
            return f"certified flag {doc['certified']} disagrees with exit code {code}"
        return None

    return check


def _sweep_check(steps: int):
    def check(code: int, stdout: str):
        rows = stdout.strip().splitlines()[1:]
        if len(rows) != steps:
            return f"sweep printed {len(rows)} rows, expected {steps}"
        for row in rows:
            theta, p_guess, _ = (float(v) for v in row.split(","))
            value = (1 + math.sin(theta)) / 3 if theta < math.pi / 2 else 2 / 3
            if abs(p_guess - value) > PRINTED_TOL:
                return f"isosceles({theta}) printed {p_guess}, closed form {value!r}"
        return None

    return check


def _oracle_check(value: float):
    def check(code: int, stdout: str):
        gap = json.loads(stdout)["value"] - value
        if -PRINTED_TOL <= gap <= ORACLE_GAP + PRINTED_TOL:
            return None
        return f"oracle value exceeds the trine optimum by {gap!r}"

    return check


def cli_invocations(seed: int, workdir: Path) -> list[Invocation]:
    """The `cli` deck, with its input documents written into workdir."""
    rng = np.random.default_rng([seed, 4])
    seeds = _seeds(rng)
    trine = families.trine(rng.uniform(0.0, 2 * math.pi))
    qubit = oracle.random_ensemble(2, 8, bool(rng.integers(2)), next(seeds))
    pair = oracle.random_ensemble(16, 2, False, next(seeds))
    steering = oracle.random_ensemble(8, 1, False, next(seeds)).states[0].matrix
    steering = steering * rng.uniform(0.5, 1.0)

    documents = (
        ("trine", trine, _closed_form_reference(trine, "trine", 2 / 3, PRINTED_TOL, PRINTED_TOL)),
        ("qubit8", qubit, _oracle_reference(qubit, PRINTED_TOL)),
        ("pair16", pair, _helstrom_reference(pair, PRINTED_TOL)),
    )
    invocations = []
    for name, ensemble, reference in documents:
        path = _write(workdir / f"{name}.json", serialize.ensemble_to_json(ensemble))
        out = workdir / f"{name}.solution.json"
        census = {"command": "solve", "N": ensemble.size, "d": ensemble.dim, "path": _path(ensemble)}
        invocations.append(Invocation(
            f"solve {name}", ["solve", path, "--verify", "--tol", "1e-8", "--out", str(out)],
            (0,), _solution_check(out, reference), census, out))
        invocations.append(Invocation(
            f"verify {name}", ["verify", path, str(out), "--tol", "1e-8"],
            (0,), _verdict_check, dict(census, command="verify")))

    steering_path = _write(workdir / "steering-K.json", serialize.matrix_to_json(steering))
    identity_path = _write(workdir / "identity-K.json", serialize.matrix_to_json(np.eye(8) / 8))
    out = workdir / "generated.json"
    invocations.append(Invocation(
        "generate steering d=8",
        ["generate", steering_path, "--mode", "steering", "--num-measurements", "3",
         "--seed", str(next(seeds)), "--out", str(out)],
        (0, 5), _generate_check(out, 3), {"command": "generate", "d": 8}, out))
    invocations.append(Invocation(
        "generate identity d=8",
        ["generate", identity_path, "--mode", "identity", "--out", str(out)],
        (0,), _generate_check(out, 8), {"command": "generate", "d": 8}, out))
    invocations.append(Invocation(
        "sweep isosceles", ["sweep", "isosceles", "--steps", "50"],
        (0,), _sweep_check(50), {"command": "sweep", "N": 3, "d": 2}))
    invocations.append(Invocation(
        "oracle trine", ["oracle", str(workdir / "trine.json"), "--resolution", "1e-3"],
        (0,), _oracle_check(2 / 3), {"command": "oracle", "N": 3, "d": 2}))

    zero = [[0.0, 0.0], [0.0, 0.0]]
    malformed = {
        "nan-entry": {"priors": [0.5, 0.5], "states": [
            {"dim": 2, "re": [[float("nan"), 0.0], [0.0, 0.5]], "im": zero},
            {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": zero}]},
        "mismatched-lists": {"priors": [0.3, 0.3, 0.4], "states": [
            {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": zero},
            {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": zero}]},
        "huge-entries": {"priors": [0.5, 0.5], "states": [
            {"dim": 2, "re": [[0.5, 1e308], [1e308, 0.5]], "im": zero},
            {"dim": 2, "re": [[0.5, -1e308], [-1e308, 0.5]], "im": zero}]},
    }
    for name, doc in malformed.items():
        path = _write(workdir / f"{name}.json", doc)
        invocations.append(Invocation(
            f"malformed {name}", ["solve", path, "--verify"],
            (2, 3), None, {"command": "solve", "malformed": name}))
    return invocations


# Open defects of the package, by invocation label and the text their
# failure shows. They count as failed ops; any other failure makes a run
# incorrect. The +-1e308 document leaks a ConvergenceError traceback with
# exit 1 instead of exiting with 2 or 3.
KNOWN_DEFECTS = {"malformed huge-entries": "ConvergenceError"}


def is_known_defect(label: str, reason: str) -> bool:
    expected = KNOWN_DEFECTS.get(label)
    return expected is not None and expected in reason


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, workdir: Path):
    """Run one child to completion; return (seconds, exit code, stdout, stderr, max RSS kB)."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), usage.ru_maxrss)


def judge(inv: Invocation, code: int, stdout: str, stderr: str) -> "str | None":
    """Why a CLI call broke its contract, or None."""
    if "Traceback" in stderr:
        return f"traceback on stderr (exit {code}): {stderr.strip().splitlines()[-1]}"
    if code not in inv.expect:
        return f"exit code {code}, expected one of {inv.expect}"
    if inv.check is None:
        return None
    try:
        return inv.check(code, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def measure_cli(invocations: list[Invocation], root: Path, src: Path, workdir: Path,
                seconds: float, traced_spans=None) -> Measurement:
    """Replay whole passes of sequential CLI calls for about `seconds`, at
    least one, timing each child process.

    With traced_spans (a list), every call also runs under traced_cli.py,
    back to back with the plain call, and its spans are appended to the
    list, one entry per traced call.
    """
    env = child_env(src)
    traced_cli = Path(__file__).with_name("traced_cli.py")
    spans_path = workdir / "spans.json"
    m = Measurement()
    before = calibrate()
    start = pass_start = perf_counter()
    while True:
        for index, inv in enumerate(invocations):
            for traced in _modes(index, traced_spans is not None):
                if inv.out is not None:
                    inv.out.unlink(missing_ok=True)
                if traced:
                    spans_path.unlink(missing_ok=True)
                    cmd = [sys.executable, str(traced_cli), str(spans_path), *inv.argv]
                else:
                    cmd = [sys.executable, "-m", "qdiscrim.cli", *inv.argv]
                elapsed, code, stdout, stderr, rss_kb = run_child(cmd, env, root, workdir)
                after = calibrate()
                if traced:
                    m.traced.append(elapsed)
                    # A child that died before writing its spans is judged above.
                    traced_spans.append(json.loads(spans_path.read_text(encoding="utf-8"))
                                        if spans_path.exists() else [])
                    counted = m.traced_ops[-1][1] if m.traced_ops else 0
                    m.traced_ops.append((inv.label, counted + len(traced_spans[-1])))
                else:
                    m.add(elapsed, before, after)
                    m.peak_rss_kb = max(m.peak_rss_kb, rss_kb)
                before = after
                m.gate_checks += 1
                reason = judge(inv, code, stdout, stderr)
                if reason is not None:
                    m.failures.append((inv.label, reason))
                m.census.append(dict(inv.census, exit=code))
        m.passes += 1
        m.pass_walls.append(perf_counter() - pass_start)
        pass_start = perf_counter()
        if not m.another_pass_fits(start, seconds):
            break
    m.wall = perf_counter() - start
    return m


def census_shares(rows: list[dict]) -> dict:
    """Share of ops by each census key's value."""
    total = len(rows)
    keys = sorted({k for row in rows for k in row})
    shares = {}
    for key in keys:
        counts = Counter(str(row.get(key)) for row in rows)
        shares[key] = {value: count / total for value, count in sorted(counts.items())}
    return shares
