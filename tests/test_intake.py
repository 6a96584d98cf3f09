"""The intake contract of the public API, as one table over qdiscrim.__all__.

Every public name has a row. A callable's row names the role of each of
its arguments and a valid call; each role has its malformed kinds (NaN,
+-inf, wrong rank, non-square, wrong dimension for the other arguments,
wrong count, non-Hermitian, wrong type, empty, bool, and huge: entries of
1e308 in a vector whose role bounds its entries (a probability, a
coordinate of a unit or Bloch vector or of the class element's center,
an amplitude, a POVM weight), whose sum or norm would overflow, a
diagonal of 1e308 in a matrix whose role bounds its entries (a state's
by 1, the steering generator's K by its trace), whose trace would
overflow, or an int beyond the float range as a scalar; a dimension is
also malformed as MAX_DIM + 1 and as 10**5000, an int too long for
Python to print, and a seed as a negative int). Each
malformed value, put in place of one argument of the valid call, must
raise ValueError, TypeError or a DiscriminationError, in a short message
in the package's words rather than numpy's or Python's; a warning of
numpy's is an error under the suite's filters.

What a role admits decides its kinds:
- a dimension or a count is malformed only relative to the other
  arguments, or where the callable fixes it (a qubit function, two
  states), so an argument that fixes nothing for the others has no such
  kind (hermitian_eigen takes any dimension);
- a measurement that is judged (verify_kkt, conditional_table_from_povm)
  may be non-Hermitian: its residuals judge it;
- vectors are read flattened, so their wrong rank is a scalar;
- an argument whose role is an object of the package (an ensemble, a
  complementary set, a table, a solution, a bipartite state) is malformed
  as a value of another type, or as a valid object that disagrees with
  the others in dimension or count; a flag takes any truth value, and a
  seed any non-negative integer, as numpy's generator does.
The errors and the result records (whose constructors the package calls
with fields it computed) take no input to check: their rows are empty.
"""

import math

import numpy as np
import pytest

import qdiscrim
from qdiscrim import (
    ComplementarySet,
    ConditionalTable,
    DiscriminationError,
    PureBipartiteState,
    WeightedEnsemble,
    conditional_table_from_povm,
    identity_class_example,
    random_ensemble,
    solve,
)
from qdiscrim.families import trine
from qdiscrim.operators import MAX_DIM
from qdiscrim.serialize import (
    certificate_to_json,
    ensemble_to_json,
    factory_output_to_json,
    solution_to_json,
)

from conftest import NUMPY_WORDS

# Python's words when a message would print an int of more than 4,300 digits
FOREIGN_WORDS = NUMPY_WORDS + ("integer string conversion",)

MATRIX = ("nan", "inf", "-inf", "wrong-rank", "non-square", "wrong-dimension",
          "non-hermitian", "wrong-type", "empty", "bool")
MATRICES = MATRIX + ("wrong-count",)
VECTOR = ("nan", "inf", "-inf", "wrong-rank", "wrong-count", "wrong-type", "empty", "bool")
BOUNDED = VECTOR + ("huge",)
ROWS_OF_3 = VECTOR + ("wrong-dimension",)
SCALAR = ("nan", "inf", "-inf", "wrong-rank", "wrong-type", "empty", "bool", "huge")
DIMENSION = SCALAR + ("beyond-max", "vast")
LABEL = ("wrong-type", "empty", "bool")
OBJECT = ("wrong-type",)
RELATIVE = OBJECT + ("wrong-dimension", "wrong-count")


def _without(kinds, *dropped):
    return tuple(k for k in kinds if k not in dropped)


# a state's entries are bounded by 1: a huge diagonal overflows its trace
STATE = _without(MATRIX, "wrong-dimension") + ("huge",)
STATES = MATRICES + ("huge",)


def _context():
    """Valid arguments, all from the trine (N = 3, d = 2), as new writable arrays."""
    ensemble = trine()
    solution = solve(ensemble)
    comp = solution.complementary
    points = ensemble.priors[:, None] * np.array([qdiscrim.to_bloch(s) for s in ensemble.states])
    return {
        "ensemble": ensemble,
        "solution": solution,
        "K": solution.symmetry_op.matrix.copy(),
        "povm": [m.copy() for m in solution.povm_matrices],
        "states": [s.matrix.copy() for s in ensemble.states],
        "priors": ensemble.priors.copy(),
        "comp": comp,
        "comp weights": comp.weights.copy(),
        "comp states": [m.copy() for m in comp.matrices],
        "points": points,
        "table": conditional_table_from_povm(ensemble, solution.povm),
    }


# name -> (valid call's keyword arguments from the context, {argument: (role, kinds)})
ROWS = {
    "ComplementarySet": (
        lambda c: dict(weights=c["comp weights"], states=c["comp states"]),
        {"weights": ("vector", VECTOR), "states": ("matrices", STATES)},
    ),
    "ConditionalTable": (
        lambda c: dict(probabilities=c["table"].probabilities.copy()),
        {"probabilities": ("matrix", _without(MATRIX, "wrong-dimension", "non-hermitian"))},
    ),
    "DensityOperator": (
        lambda c: dict(matrix=c["states"][0]),
        {"matrix": ("matrix", STATE)},
    ),
    "DiscriminationSolution": (
        lambda c: dict(ensemble=c["ensemble"], symmetry_op=c["K"], povm=c["povm"]),
        {"ensemble": ("ensemble", RELATIVE), "symmetry_op": ("matrix", MATRIX),
         "povm": ("matrices", MATRICES)},
    ),
    "HermitianOperator": (
        lambda c: dict(matrix=c["K"]),
        {"matrix": ("matrix", _without(MATRIX, "wrong-dimension"))},
    ),
    "PureBipartiteState": (
        lambda c: dict(dim_a=2, dim_b=2, amplitudes=np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)),
        {"dim_a": ("scalar", DIMENSION), "dim_b": ("scalar", DIMENSION),
         "amplitudes": ("vector", BOUNDED)},
    ),
    "SteeringMeasurement": (
        lambda c: dict(first_outcome=np.diag([1.0, 0.0])),
        {"first_outcome": ("matrix", _without(MATRIX, "wrong-dimension"))},
    ),
    "WeightedEnsemble": (
        lambda c: dict(priors=c["priors"], states=c["states"]),
        {"priors": ("vector", BOUNDED), "states": ("matrices", STATES)},
    ),
    "complementary_states": (
        lambda c: dict(symmetry_op=c["K"], ensemble=c["ensemble"]),
        {"symmetry_op": ("matrix", MATRIX),
         "ensemble": ("ensemble", OBJECT + ("wrong-dimension",))},
    ),
    "conditional_table_from_povm": (
        lambda c: dict(ensemble=c["ensemble"], povm=c["povm"]),
        {"ensemble": ("ensemble", RELATIVE),
         "povm": ("matrices", _without(MATRICES, "non-hermitian"))},
    ),
    "distance_from_uniform": (
        lambda c: dict(distribution=np.array([0.5, 0.3, 0.2])),
        {"distribution": ("vector", _without(BOUNDED, "wrong-rank", "wrong-count"))},
    ),
    "dual_grid_oracle": (
        lambda c: dict(ensemble=c["ensemble"], resolution=0.05),
        {"ensemble": ("ensemble", OBJECT + ("wrong-dimension",)),
         "resolution": ("scalar", SCALAR)},
    ),
    "equivalence_check": (
        lambda c: dict(op_a=c["K"], op_b=c["K"].copy(), tol=1e-9),
        {"op_a": ("matrix", MATRIX), "op_b": ("matrix", MATRIX), "tol": ("scalar", SCALAR)},
    ),
    "from_bloch": (
        lambda c: dict(v=np.array([0.0, 0.0, 0.5])),
        {"v": ("vector", BOUNDED)},
    ),
    "generate_from_symmetry_operator": (
        lambda c: dict(symmetry_op=np.eye(2) / 2, measurements=[np.diag([1.0, 0.0])] * 2),
        {"symmetry_op": ("matrix", MATRIX + ("huge",)),
         "measurements": ("matrices", _without(MATRICES, "wrong-count"))},
    ),
    "generate_qubit_class_element": (
        lambda c: dict(value=1.0, center=np.zeros(3),
                       directions=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
                       povm_weights=np.array([1.0, 1.0]), priors=np.array([0.5, 0.5])),
        {"value": ("scalar", SCALAR), "center": ("vector", BOUNDED),
         "directions": ("rows", ROWS_OF_3 + ("huge",)), "povm_weights": ("vector", BOUNDED),
         "priors": ("vector", BOUNDED)},
    ),
    "guessing_from_table": (
        lambda c: dict(priors=c["priors"], table=c["table"]),
        {"priors": ("vector", BOUNDED), "table": ("table", OBJECT + ("wrong-count",))},
    ),
    "helstrom_two_state": (
        lambda c: dict(ensemble=random_ensemble(2, 2, False, 1)),
        {"ensemble": ("ensemble", OBJECT + ("wrong-count",))},
    ),
    "hermitian_eigen": (
        lambda c: dict(operator=c["K"]),
        {"operator": ("matrix", _without(MATRIX, "wrong-dimension"))},
    ),
    "identity_class_example": (lambda c: dict(dim=3), {"dim": ("scalar", DIMENSION)}),
    "is_psd": (
        lambda c: dict(operator=c["K"], tol=1e-10),
        {"operator": ("matrix", _without(MATRIX, "wrong-dimension")),
         "tol": ("scalar", SCALAR)},
    ),
    "partial_trace": (
        lambda c: dict(state=PureBipartiteState(2, 2, [1.0, 0.0, 0.0, 0.0]), subsystem="A"),
        {"state": ("object", OBJECT), "subsystem": ("label", LABEL)},
    ),
    "probability_forms": (
        lambda c: dict(solution=c["solution"]), {"solution": ("object", OBJECT)}
    ),
    "purify": (
        lambda c: dict(rho=c["states"][0]),
        {"rho": ("matrix", STATE)},
    ),
    "random_ensemble": (
        lambda c: dict(dim=2, size=3, pure=False, seed=1),
        {"dim": ("scalar", DIMENSION), "size": ("scalar", SCALAR), "pure": ("flag", ()),
         "seed": ("scalar", _without(SCALAR, "huge") + ("negative",))},
    ),
    "reconstruct_povm": (
        lambda c: dict(ensemble=c["ensemble"], complementary=c["comp"]),
        {"ensemble": ("ensemble", RELATIVE), "complementary": ("complementary", RELATIVE)},
    ),
    "shifted_ball_dual": (
        lambda c: dict(points=c["points"], shifts=c["priors"]),
        {"points": ("rows", ROWS_OF_3), "shifts": ("vector", BOUNDED)},
    ),
    "solve": (lambda c: dict(ensemble=c["ensemble"]), {"ensemble": ("ensemble", OBJECT)}),
    "solve_qubit": (
        lambda c: dict(ensemble=c["ensemble"]),
        {"ensemble": ("ensemble", OBJECT + ("wrong-dimension",))},
    ),
    "to_bloch": (lambda c: dict(rho=c["states"][0]), {"rho": ("matrix", MATRIX)}),
    "trace_norm": (
        lambda c: dict(operator=c["K"]),
        {"operator": ("matrix", _without(MATRIX, "wrong-dimension"))},
    ),
    "verify_kkt": (
        lambda c: dict(ensemble=c["ensemble"], symmetry_op=c["K"], povm=c["povm"], tol=1e-8),
        {"ensemble": ("ensemble", RELATIVE), "symmetry_op": ("matrix", MATRIX),
         "povm": ("matrices", _without(MATRICES, "non-hermitian")),
         "tol": ("scalar", SCALAR)},
    ),
    "verify_legacy_conditions": (
        lambda c: dict(ensemble=c["ensemble"], povm=c["povm"], tol=1e-8),
        {"ensemble": ("ensemble", RELATIVE),
         "povm": ("matrices", _without(MATRICES, "non-hermitian")),
         "tol": ("scalar", SCALAR)},
    ),
}
# Errors, and records the package fills with what it computed: no input to check.
for _name in (
    "ConvergenceError", "DiscriminationError", "InfeasibleDualError", "UnsupportedInstanceError",
    "FactoryOutput", "KktCertificate", "ProbabilityForms", "ShiftedBallResult",
    "SpectralDecomposition",
):
    ROWS[_name] = (None, {})


def _matrix(valid: np.ndarray, kind: str):
    """A malformed matrix of kind, from a valid square matrix."""
    m = np.array(valid, dtype=complex)
    if kind == "huge":
        return np.diag(np.full(len(m), 1e308 + 0j))
    if kind in ("nan", "inf", "-inf"):
        m[0, 0] = float(kind)
        return m
    if kind == "non-hermitian":
        m[0, -1] += 0.5
        return m
    return {
        "wrong-rank": m[None],
        "non-square": m[:-1],
        "wrong-dimension": np.pad(m, (0, 1)),
    }[kind]


def _vector(valid: np.ndarray, kind: str):
    """A malformed vector, or array of rows of three, of kind, from a valid one."""
    v = np.array(valid, dtype=float)
    if kind == "huge":
        return np.full_like(v, 1e308)
    if kind in ("nan", "inf", "-inf"):
        v.reshape(-1)[0] = float(kind)
        return v
    if kind == "wrong-rank":
        return v[0]
    if kind == "wrong-count":  # the same sum over one entry fewer
        total = v[:-1].sum()
        return v[:-1] * (v.sum() / total) if total else v[:-1]
    return v[:, :2]  # wrong-dimension: rows of two coordinates


def _relative(role: str, kind: str):
    """A valid object of the role whose dimension or count disagrees with the trine's."""
    if role == "ensemble":
        dim, size = (3, 3) if kind == "wrong-dimension" else (2, 4)
        return random_ensemble(dim, size, False, 1)
    if role == "complementary":
        if kind == "wrong-dimension":
            return identity_class_example(3).complementary
        return solve(random_ensemble(2, 4, False, 1)).complementary
    return ConditionalTable(np.eye(4))  # table, wrong-count


def _malformed(role: str, kind: str, valid):
    """The malformed value of kind for an argument of role whose valid value is valid."""
    common = {"wrong-type": "x", "empty": [], "bool": True}
    if role == "label":
        return {"wrong-type": 1, "empty": "", "bool": True}[kind]
    if kind in common:
        return common[kind]
    if role == "scalar":
        if kind in ("huge", "beyond-max", "vast", "negative"):
            return {"huge": 10**400, "beyond-max": MAX_DIM + 1, "vast": 10**5000,
                    "negative": -1}[kind]
        return [valid] if kind == "wrong-rank" else float(kind)
    if role == "matrix":
        return _matrix(valid, kind)
    if role == "matrices":
        if kind == "wrong-rank":
            return np.array(valid[0])
        if kind == "wrong-count":
            return list(valid[:-1])
        return [_matrix(valid[0], kind), *valid[1:]]
    if role in ("vector", "rows"):
        return _vector(valid, kind)
    return _relative(role, kind)


CASES = [
    pytest.param(name, argument, kind, id=f"{name}-{argument}-{kind}")
    for name, (_, roles) in sorted(ROWS.items())
    for argument, (_, kinds) in roles.items()
    for kind in kinds
]


def test_every_public_name_has_a_row():
    assert sorted(ROWS) == sorted(qdiscrim.__all__)
    for name, (call, roles) in ROWS.items():
        target = getattr(qdiscrim, name)
        if call is None:
            assert isinstance(target, type), name
            continue
        assert set(call(_context())) == set(roles), name


@pytest.mark.parametrize("name", sorted(n for n, (call, _) in ROWS.items() if call is not None))
def test_the_valid_call_of_each_row_succeeds(name):
    call, _ = ROWS[name]
    getattr(qdiscrim, name)(**call(_context()))


@pytest.mark.parametrize("name, argument, kind", CASES)
def test_a_malformed_argument_is_rejected_in_the_package_words(name, argument, kind):
    call, roles = ROWS[name]
    kwargs = call(_context())
    kwargs[argument] = _malformed(roles[argument][0], kind, kwargs[argument])
    with pytest.raises((ValueError, TypeError, DiscriminationError)) as info:
        getattr(qdiscrim, name)(**kwargs)
    message = str(info.value)
    assert len(message) <= 200, message[:200]
    assert not any(words in message for words in FOREIGN_WORDS), message


# The roles whose entries are bounded (a state's by 1, the steering generator's
# K by its trace), each given a diagonal of 1e308, whose trace overflows.
HUGE_DIAGONAL = {
    "DensityOperator": lambda m: qdiscrim.DensityOperator(m),
    "WeightedEnsemble": lambda m: WeightedEnsemble([0.5, 0.5], [m, np.eye(len(m)) / len(m)]),
    "ComplementarySet": lambda m: ComplementarySet([0.5], [m]),
    "purify": lambda m: qdiscrim.purify(m),
    "generate_from_symmetry_operator":
        lambda m: qdiscrim.generate_from_symmetry_operator(m, [np.eye(len(m)) / 2]),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(HUGE_DIAGONAL))
def test_a_huge_diagonal_is_rejected_by_its_trace_with_no_warning(name, dim):
    with pytest.raises(ValueError, match="got inf$"):  # a warning of numpy's raises instead
        HUGE_DIAGONAL[name](np.diag(np.full(dim, 1e308)))


# The public callables that take an object of the package, each such argument
# and its class: a value of another type raises TypeError naming the class.
OBJECT_ARGUMENTS = {
    "DiscriminationSolution": {"ensemble": "WeightedEnsemble"},
    "complementary_states": {"ensemble": "WeightedEnsemble"},
    "conditional_table_from_povm": {"ensemble": "WeightedEnsemble"},
    "dual_grid_oracle": {"ensemble": "WeightedEnsemble"},
    "guessing_from_table": {"table": "ConditionalTable"},
    "helstrom_two_state": {"ensemble": "WeightedEnsemble"},
    "partial_trace": {"state": "PureBipartiteState"},
    "probability_forms": {"solution": "DiscriminationSolution"},
    "reconstruct_povm": {"ensemble": "WeightedEnsemble", "complementary": "ComplementarySet"},
    "solve": {"ensemble": "WeightedEnsemble"},
    "solve_qubit": {"ensemble": "WeightedEnsemble"},
    "verify_kkt": {"ensemble": "WeightedEnsemble"},
    "verify_legacy_conditions": {"ensemble": "WeightedEnsemble"},
}


@pytest.mark.parametrize("value", ["x", True, [], None, 0.5, np.eye(2)],
                         ids=["str", "bool", "list", "none", "float", "ndarray"])
@pytest.mark.parametrize("name", sorted(OBJECT_ARGUMENTS))
def test_a_package_object_of_another_type_raises_type_error_naming_its_class(name, value):
    call, _ = ROWS[name]
    for argument, expected in OBJECT_ARGUMENTS[name].items():
        kwargs = call(_context())
        kwargs[argument] = value
        with pytest.raises(TypeError) as info:
            getattr(qdiscrim, name)(**kwargs)
        assert str(info.value) == f"expected a {expected}, got {type(value).__name__}"


def test_the_calls_that_raised_attribute_error_raise_type_error():
    solution = solve(trine())
    with pytest.raises(TypeError, match="^expected a WeightedEnsemble, got str$"):
        solve("x")
    with pytest.raises(TypeError, match="^expected a WeightedEnsemble, got bool$"):
        qdiscrim.verify_kkt(True, solution.symmetry_op, solution.povm)
    with pytest.raises(TypeError, match="^expected a DiscriminationSolution, got list$"):
        qdiscrim.probability_forms([])


def test_the_serializers_check_their_object():
    with pytest.raises(TypeError, match="^expected a WeightedEnsemble, got str$"):
        ensemble_to_json("x")
    with pytest.raises(TypeError) as info:
        solution_to_json(trine())
    assert str(info.value) == "expected a DiscriminationSolution, got WeightedEnsemble"
    with pytest.raises(TypeError, match="^expected a KktCertificate, got str$"):
        certificate_to_json("x")
    with pytest.raises(TypeError, match="^expected a FactoryOutput, got str$"):
        factory_output_to_json("x")


def test_the_dimension_is_checked_before_anything_is_allocated(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the dimension was checked")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    with pytest.raises(ValueError) as info:
        random_ensemble(MAX_DIM + 1, 2, False, 0)
    assert str(info.value) == f"need 2 <= dim <= {MAX_DIM} and at least one state"
    with pytest.raises(ValueError) as info:
        identity_class_example(MAX_DIM + 1)
    assert str(info.value) == f"dimension must be in 2..{MAX_DIM}"
