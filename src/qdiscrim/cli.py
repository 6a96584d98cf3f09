"""Command-line interface.

One entry point with subcommands solve | verify | generate | sweep |
oracle. Results go to standard output as JSON (or CSV for sweeps) with
nine significant digits; diagnostics go to standard error. Commands
raise, and main alone turns an error into its exit code: 0 success, 2 a
file that cannot be read or written, 3 an unsupported instance or invalid
parameters (UnsupportedInstanceError, ValueError), 4 any other package
error (non-convergence, an infeasible dual), 5 generated output failed
certification (the output is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .certify import ANALYTIC_TOL, verify_kkt, verify_legacy_conditions
from .errors import DiscriminationError, UnsupportedInstanceError
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


class _FileError(Exception):
    """A file that cannot be read or written; its message names the file."""


@contextmanager
def _reading(path: str, errors=(ValueError,)):
    """Turn the given errors, raised while reading the document at path, into a file error."""
    try:
        yield
    except errors as exc:
        raise _FileError(f"{path}: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _FileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _FileError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_ensemble(path: str):
    with _reading(path, (ValueError, DiscriminationError)):
        return ensemble_from_json(_load_json(path))


def _load_matrix(path: str, field: str) -> np.ndarray:
    with _reading(path):
        return matrix_from_json(_load_json(path), field=field)


def _certificate(ensemble, doc, tol: float, legacy: bool = False) -> dict:
    """Certify the numbers of a solution document: its povm, with its K unless legacy.

    The one certification path: `verify` runs it on a candidate file and
    `solve --verify` on the rounded document it prints. A defect of the
    document raises ValueError.
    """
    if not isinstance(doc, dict) or "povm" not in doc:
        raise ValueError("missing key 'povm'")
    if not isinstance(doc["povm"], list):
        raise ValueError("povm: expected an array of matrices")
    povm = [
        HermitianOperator(matrix_from_json(m, field=f"povm[{i}]"))
        for i, m in enumerate(doc["povm"])
    ]
    if legacy or "K" not in doc:
        cert = verify_legacy_conditions(ensemble, povm, tol=tol)
    else:
        sym = HermitianOperator(matrix_from_json(doc["K"], field="K"))
        cert = verify_kkt(ensemble, sym, povm, tol=tol)
    return certificate_to_json(cert)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise _FileError(f"{out}: {exc}") from exc
    else:
        print(text)


def _emit_json(doc, out: str | None) -> None:
    _emit(json.dumps(round_floats(doc), indent=2), out)


def _cmd_solve(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    doc = round_floats(solution_to_json(solve(ensemble)))
    if args.verify:
        doc["certificate"] = round_floats(_certificate(ensemble, doc, args.tol))
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    candidate = _load_json(args.solution)
    with _reading(args.solution):
        cert = _certificate(ensemble, candidate, args.tol, args.legacy)
    _emit_json(cert, args.out)
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
    sym = HermitianOperator(_load_matrix(args.operator, field="K"))
    if args.mode == "identity":
        if float(np.max(np.abs(sym.matrix - np.eye(sym.dim) / sym.dim))) > 1e-9:
            raise ValueError("identity mode expects the operator I/d")
        output = identity_class_example(sym.dim)
    else:
        measurements = _random_projective_measurements(sym.dim, args.num_measurements, args.seed)
        output = generate_from_symmetry_operator(sym, measurements)
    _emit_json(factory_output_to_json(output), args.out)
    if not output.certified:
        print("uncertified: no optimal measurement found for this decomposition", file=sys.stderr)
        return EXIT_UNCERTIFIED
    return EXIT_OK


# family: (constructor, excluded lower end, upper end, upper end included, default start and stop)
_SWEEPS = {
    "isosceles": (isosceles_triple, 0.0, math.pi, True, 0.05, math.pi),
    "rectangle": (orthogonal_pairs, 0.0, math.pi / 2, False, 0.05, math.pi / 2 - 0.05),
    "tetrahedron": (inscribed_tetrahedron, 0.0, 1.0, True, 0.05, 1.0),
}


def _cmd_sweep(args) -> int:
    family, lo, hi, hi_closed, default_start, default_stop = _SWEEPS[args.family]
    start = default_start if args.start is None else args.start
    stop = default_stop if args.stop is None else args.stop
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    if start > stop:
        raise ValueError("start must not exceed stop")
    for value in (start, stop):
        if not (lo < value and (value <= hi if hi_closed else value < hi)):
            raise ValueError(f"{args.family} parameter {value} outside its valid range")

    rows = []
    for i in range(args.steps):
        parameter = start + (stop - start) * i / (args.steps - 1)
        solution = solve_qubit_equal_priors(family(parameter))
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
    value = dual_grid_oracle(_load_ensemble(args.ensemble), args.resolution)
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
    p_verify.add_argument("--tol", type=float, default=ANALYTIC_TOL)
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
    p_sweep.add_argument("family", choices=list(_SWEEPS))
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
    except (_FileError, ValueError, DiscriminationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _FileError):
            return EXIT_PARSE
        if isinstance(exc, (UnsupportedInstanceError, ValueError)):
            return EXIT_UNSUPPORTED
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
