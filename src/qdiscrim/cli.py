"""Command-line interface.

One entry point with subcommands solve | verify | generate | sweep |
oracle. Results go to standard output as JSON (or CSV for sweeps) with
nine significant digits; diagnostics go to standard error. Exit codes:
0 success, 2 parse failure, 3 unsupported instance or invalid
parameters, 4 non-convergence, 5 generated output failed certification
(the output is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .certify import ANALYTIC_TOL, verify_kkt, verify_legacy_conditions
from .errors import ConvergenceError, DiscriminationError, UnsupportedInstanceError
from .factory import (
    SteeringMeasurement,
    generate_from_symmetry_operator,
    identity_class_example,
)
from .families import inscribed_tetrahedron, isosceles_triple, orthogonal_pairs
from .operators import HermitianOperator
from .oracle import dual_grid_oracle
from .serialize import (
    certificate_to_json,
    ensemble_from_json,
    factory_output_to_json,
    matrix_from_json,
    round_floats,
    solution_to_json,
)
from .solve import solve, solve_qubit_equal_priors

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NO_CONVERGENCE = 4
EXIT_UNCERTIFIED = 5


class _ExitError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _ExitError(EXIT_PARSE, f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ExitError(
            EXIT_PARSE, f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_ensemble(path: str):
    try:
        return ensemble_from_json(_load_json(path))
    except (ValueError, DiscriminationError) as exc:
        raise _ExitError(EXIT_PARSE, f"{path}: {exc}") from exc


def _load_matrix(path: str, field: str) -> np.ndarray:
    try:
        return matrix_from_json(_load_json(path), field=field)
    except ValueError as exc:
        raise _ExitError(EXIT_PARSE, f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _emit_json(doc, out: str | None) -> None:
    _emit(json.dumps(round_floats(doc), indent=2), out)


def _cmd_solve(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    try:
        solution = solve(ensemble)
    except UnsupportedInstanceError as exc:
        raise _ExitError(EXIT_UNSUPPORTED, str(exc)) from exc
    except ConvergenceError as exc:
        raise _ExitError(EXIT_NO_CONVERGENCE, str(exc)) from exc
    doc = solution_to_json(solution)
    if args.verify:
        cert = verify_kkt(ensemble, solution.symmetry_op, solution.povm, tol=args.tol)
        doc["certificate"] = certificate_to_json(cert)
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    candidate = _load_json(args.solution)
    if not isinstance(candidate, dict) or "povm" not in candidate:
        raise _ExitError(EXIT_PARSE, f"{args.solution}: missing key 'povm'")
    try:
        povm = [
            HermitianOperator(matrix_from_json(m, field=f"povm[{i}]"))
            for i, m in enumerate(candidate["povm"])
        ]
        if args.legacy or "K" not in candidate:
            cert = verify_legacy_conditions(ensemble, povm, tol=args.tol)
        else:
            sym = HermitianOperator(matrix_from_json(candidate["K"], field="K"))
            cert = verify_kkt(ensemble, sym, povm, tol=args.tol)
    except ValueError as exc:
        raise _ExitError(EXIT_PARSE, f"{args.solution}: {exc}") from exc
    _emit_json(certificate_to_json(cert), args.out)
    return EXIT_OK


def _random_projective_measurements(dim: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    measurements = []
    for _ in range(count):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        measurements.append(SteeringMeasurement(np.outer(vec, vec.conj())))
    return measurements


def _cmd_generate(args) -> int:
    matrix = _load_matrix(args.operator, field="K")
    try:
        sym = HermitianOperator(matrix)
        if args.mode == "identity":
            dim = sym.dim
            if float(np.max(np.abs(sym.matrix - np.eye(dim) / dim))) > 1e-9:
                raise ValueError("identity mode expects the operator I/d")
            output = identity_class_example(dim)
        else:
            measurements = _random_projective_measurements(
                sym.dim, args.num_measurements, args.seed
            )
            output = generate_from_symmetry_operator(sym, measurements)
    except ValueError as exc:
        raise _ExitError(EXIT_UNSUPPORTED, str(exc)) from exc
    _emit_json(factory_output_to_json(output), args.out)
    if not output.certified:
        print("uncertified: no optimal measurement found for this decomposition", file=sys.stderr)
        return EXIT_UNCERTIFIED
    return EXIT_OK


_SWEEP_RANGES = {
    "isosceles": (0.0, math.pi, False, True),
    "rectangle": (0.0, math.pi / 2, False, False),
    "tetrahedron": (0.0, 1.0, False, True),
}

_SWEEP_DEFAULTS = {
    "isosceles": (0.05, math.pi),
    "rectangle": (0.05, math.pi / 2 - 0.05),
    "tetrahedron": (0.05, 1.0),
}


def _sweep_instance(family: str, parameter: float):
    if family == "isosceles":
        return isosceles_triple(parameter)
    if family == "rectangle":
        return orthogonal_pairs(parameter)
    return inscribed_tetrahedron(parameter)


def _cmd_sweep(args) -> int:
    lo, hi, lo_closed, hi_closed = _SWEEP_RANGES[args.family]
    start, stop = args.start, args.stop
    if start is None or stop is None:
        default_start, default_stop = _SWEEP_DEFAULTS[args.family]
        start = default_start if start is None else start
        stop = default_stop if stop is None else stop
    if args.steps < 2:
        raise _ExitError(EXIT_UNSUPPORTED, "sweep needs at least 2 steps")
    if start > stop:
        raise _ExitError(EXIT_UNSUPPORTED, "start must not exceed stop")
    for value in (start, stop):
        inside = (lo < value or (lo_closed and value >= lo)) and (
            value < hi or (hi_closed and value <= hi)
        )
        if not inside:
            raise _ExitError(
                EXIT_UNSUPPORTED,
                f"{args.family} parameter {value} outside its valid range",
            )

    rows = []
    for i in range(args.steps):
        parameter = start + (stop - start) * i / (args.steps - 1)
        solution = solve_qubit_equal_priors(_sweep_instance(args.family, parameter))
        rows.append((parameter, solution.p_guess, len(solution.support)))

    if args.format == "json":
        doc = [
            {"parameter": p, "p_guess": g, "support_size": s} for p, g, s in rows
        ]
        _emit_json(doc, args.out)
    else:
        lines = ["parameter,p_guess,support_size"]
        lines.extend(f"{p:.9g},{g:.9g},{s}" for p, g, s in rows)
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    try:
        value = dual_grid_oracle(ensemble, args.resolution)
    except ValueError as exc:
        raise _ExitError(EXIT_UNSUPPORTED, str(exc)) from exc
    _emit_json({"value": value, "resolution": args.resolution}, args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiscrim",
        description="Solve, certify, and generate minimum-error state discrimination instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an ensemble file")
    p_solve.add_argument("ensemble", help="path to an ensemble JSON file")
    p_solve.add_argument("--verify", action="store_true", help="append a KKT certificate")
    p_solve.add_argument("--tol", type=float, default=ANALYTIC_TOL,
                         help="certificate tolerance")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="certify a candidate solution")
    p_verify.add_argument("ensemble")
    p_verify.add_argument("solution", help="JSON with 'K' and 'povm' (or 'povm' alone)")
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--legacy", action="store_true", help="derive K from the POVM")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_generate = sub.add_parser("generate", help="construct an ensemble from an operator")
    p_generate.add_argument("operator", help="path to a matrix JSON file")
    p_generate.add_argument("--mode", choices=["identity", "steering"], default="steering")
    p_generate.add_argument("--num-measurements", type=int, default=3)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--out", default=None)
    p_generate.set_defaults(func=_cmd_generate)

    p_sweep = sub.add_parser("sweep", help="emit a parameter sweep for an example family")
    p_sweep.add_argument("family", choices=["isosceles", "rectangle", "tetrahedron"])
    p_sweep.add_argument("--steps", type=int, default=50)
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="brute-force dual value for a qubit ensemble")
    p_oracle.add_argument("ensemble")
    p_oracle.add_argument("--resolution", type=float, default=1e-3)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ExitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
