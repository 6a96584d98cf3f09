"""Every array the package stores is read-only, and no array a caller passes in is frozen.

Each builder below returns what a public function or constructor built
and the arrays its caller passed in. Every ndarray reachable from the
output (dataclass fields, lazily wrapped tuples and their stacks, cached
spectra) must be read-only, in the output as built, deep-copied and
pickled; every array of the caller must still be writable. Every
module-level array of the package is read-only too.
"""

import copy
import dataclasses
import functools
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import qdiscrim
from qdiscrim import (
    ComplementarySet,
    ConditionalTable,
    DiscriminationSolution,
    PureBipartiteState,
    WeightedEnsemble,
    complementary_states,
    generate_qubit_class_element,
    hermitian_eigen,
    identity_class_example,
    probability_forms,
    purify,
    random_ensemble,
    shifted_ball_dual,
    solve,
)
from qdiscrim.families import trine
from qdiscrim.serialize import ensemble_from_json, ensemble_to_json


def _stored_arrays(obj, path="output"):
    """(path, array) of every ndarray reachable from obj."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _stored_arrays(item, f"{path}[{i}]")
        if hasattr(obj, "stack"):
            yield from _stored_arrays(obj.stack, f"{path}.stack")
    elif dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        cached = functools.cached_property
        names += [n for n, v in vars(type(obj)).items() if isinstance(v, cached)]
        for name in names:
            yield from _stored_arrays(getattr(obj, name), f"{path}.{name}")


def _qubit_states():
    return [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.5, 0.5], [0.5, 0.5]])]


def _trivial():
    state = np.eye(3) / 3
    return solve(WeightedEnsemble(np.array([1.0]), [state])), [state]


def _two_state():
    ensemble = random_ensemble(3, 2, False, 1)
    return solve(ensemble), []


def _qubit_solve():
    return solve(trine()), []


def _parsed_qubit():
    return ensemble_from_json(ensemble_to_json(trine())), []


def _parsed_d3():
    return ensemble_from_json(ensemble_to_json(random_ensemble(3, 2, False, 2))), []


def _complementary():
    ensemble = trine()
    k = solve(ensemble).symmetry_op.matrix.copy()
    return complementary_states(k, ensemble), [k]


def _steering_generator():
    return identity_class_example(3), []


def _qubit_generator():
    args = (np.zeros(3), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
            np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    return generate_qubit_class_element(1.0, *args), list(args)


def _hermitian_eigen():
    matrix = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    return hermitian_eigen(matrix), [matrix]


def _purify():
    return purify(trine().states[0]), []


def _pure_bipartite():
    amplitudes = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return PureBipartiteState(2, 2, amplitudes), [amplitudes]


def _conditional_table():
    table = np.array([[0.75, 0.25], [0.25, 0.75]])
    return ConditionalTable(table), [table]


def _shifted_ball_dual():
    points, shifts = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]]), np.array([0.5, 0.5])
    return shifted_ball_dual(points, shifts), [points, shifts]


def _probability_forms():
    return probability_forms(solve(trine())), []


def _weighted_ensemble():
    priors, states = np.array([0.5, 0.5]), _qubit_states()
    return WeightedEnsemble(priors, states), [priors, *states]


def _complementary_set():
    weights, states = np.array([0.5, 0.0]), _qubit_states()
    return ComplementarySet(weights, [states[0], None]), [weights, states[0]]


def _solution():
    ensemble = WeightedEnsemble([0.5, 0.5], _qubit_states())
    sol = solve(ensemble)
    k, povm = sol.symmetry_op.matrix.copy(), [m.copy() for m in sol.povm_matrices]
    return DiscriminationSolution(ensemble, k, povm), [k, *povm]


BUILDERS = {
    "trivial-solve": _trivial,
    "two-state-solve": _two_state,
    "qubit-solve": _qubit_solve,
    "parsed-qubit-ensemble": _parsed_qubit,
    "parsed-d3-ensemble": _parsed_d3,
    "complementary-states": _complementary,
    "steering-generator": _steering_generator,
    "qubit-generator": _qubit_generator,
    "hermitian-eigen": _hermitian_eigen,
    "purify": _purify,
    "pure-bipartite-state": _pure_bipartite,
    "conditional-table": _conditional_table,
    "shifted-ball-dual": _shifted_ball_dual,
    "probability-forms": _probability_forms,
    "weighted-ensemble": _weighted_ensemble,
    "complementary-set": _complementary_set,
    "discrimination-solution": _solution,
}


COPIES = {
    "": lambda output: output,
    "-deep-copied": copy.deepcopy,
    "-pickled": lambda output: pickle.loads(pickle.dumps(output)),
}


@pytest.mark.parametrize(
    "builder, copied",
    [
        pytest.param(builder, copied, id=name + suffix)
        for name, builder in BUILDERS.items()
        for suffix, copied in COPIES.items()
    ],
)
def test_stored_arrays_are_read_only_and_caller_arrays_stay_writable(builder, copied):
    output, inputs = builder()
    stored = list(_stored_arrays(copied(output)))
    assert stored
    assert [path for path, array in stored if array.flags.writeable] == []
    assert all(array.flags.writeable for array in inputs)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qdiscrim.__path__)))
def test_module_level_arrays_are_read_only(module):
    namespace = vars(importlib.import_module(f"qdiscrim.{module}"))
    writable = [name for name, value in namespace.items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert not writable, writable
