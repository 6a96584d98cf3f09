import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdiscrim
import qdiscrim.errors
import qdiscrim.serialize as serialize

from qdiscrim import (
    HermitianOperator,
    WeightedEnsemble,
    from_bloch,
    random_ensemble,
    verify_kkt,
)
from qdiscrim.certify import ANALYTIC_TOL, verify_legacy_conditions
from qdiscrim.cli import _certificate, main
from qdiscrim.errors import DiscriminationError, UnsupportedInstanceError
from qdiscrim.serialize import (
    _matrices_from_json,
    certificate_to_json,
    ensemble_from_json,
    ensemble_to_json,
    matrix_from_json,
    matrix_to_json,
    round_floats,
    solution_to_json,
)
from qdiscrim.bloch import _bloch_vectors, _operators
from qdiscrim.families import trine
from qdiscrim.operators import _eigh, _state_stack
from qdiscrim.solve import solve

ROOT = Path(__file__).resolve().parents[1]


def _round_floats_reference(value, digits):
    """The original one-call-per-float recursion that round_floats must reproduce."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_floats_reference(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats_reference(v, digits) for v in value]
    return value


def _matrix_to_json_reference(m):
    """The original one-float-call-per-entry conversion of matrix_to_json."""
    return {
        "dim": m.shape[0],
        "re": [[float(v) for v in row] for row in m.real],
        "im": [[float(v) for v in row] for row in m.imag],
    }


class TestSerialization:
    def test_matrix_round_trip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = (m + m.conj().T) / 2
        back = matrix_from_json(matrix_to_json(m))
        assert np.max(np.abs(back - m)) == 0.0

    def test_matrix_diagnostics_name_the_field(self):
        with pytest.raises(ValueError, match="states\\[0\\]"):
            ensemble_from_json({"priors": [1.0], "states": [{"dim": 2, "re": [[1]]}]})
        with pytest.raises(ValueError, match="K.dim"):
            matrix_from_json({"dim": -1, "re": [], "im": []}, field="K")
        with pytest.raises(ValueError, match="missing key"):
            ensemble_from_json({"priors": [1.0]})

    def test_ensemble_round_trip(self):
        e = random_ensemble(2, 3, pure=False, seed=5)
        back = ensemble_from_json(ensemble_to_json(e))
        assert np.max(np.abs(back.priors - e.priors)) <= 1e-12
        for a, b in zip(back.states, e.states):
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12

    def test_solution_document_shape(self):
        sol = solve(trine())
        doc = solution_to_json(sol)
        assert set(doc) == {"p_guess", "K", "complementary", "povm", "support"}
        assert len(doc["povm"]) == 3
        assert doc["support"] == [0, 1, 2]
        assert all(set(entry) == {"r", "sigma"} for entry in doc["complementary"])

    def test_round_floats_significant_digits(self):
        assert round_floats(0.12345678949) == 0.123456789
        assert round_floats({"x": [1 / 3]}) == {"x": [0.333333333]}

    @pytest.mark.parametrize(
        "ensemble",
        [
            random_ensemble(16, 2, pure=False, seed=41),
            random_ensemble(8, 2, pure=True, seed=42),
            random_ensemble(2, 12, pure=False, seed=43),
            trine(),
        ],
        ids=["dense-pair-mixed", "dense-pair-pure", "qubit-shifted", "qubit-ball"],
    )
    def test_round_floats_matches_recursive_reference(self, ensemble):
        sol = solve(ensemble)
        doc = solution_to_json(sol)
        doc["certificate"] = certificate_to_json(verify_kkt(ensemble, sol.symmetry_op, sol.povm))
        doc["extras"] = (np.float64(2 / 3), -0.0, 1e-300, 5e-324, 7, True, None, "x", [[], {}])
        for digits in (9, 3, 17):
            expected = json.dumps(_round_floats_reference(doc, digits))
            assert json.dumps(round_floats(doc, digits)) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        matrices=st.lists(
            st.integers(1, 6).flatmap(
                lambda width: st.lists(
                    st.lists(st.floats(), min_size=width, max_size=width), min_size=1, max_size=5
                )
            ),
            min_size=1,
            max_size=3,
        ),
        digits=st.integers(1, 17),
    )
    def test_round_floats_matrices_match_reference(self, matrices, digits):
        # any doubles, subnormals, signed zeros, inf and nan among them
        doc = {"matrices": matrices, "first": matrices[0]}
        expected = json.dumps(_round_floats_reference(doc, digits))
        assert json.dumps(round_floats(doc, digits)) == expected

    def test_round_floats_exact_cases(self):
        powers = [float(f"1e{k}") for k in range(-30, 31)]
        edges = [np.nextafter(p, direction).item() for p in powers for direction in (0.0, np.inf)]
        values = [123456789.5, 0.125, 1.5e9, 5e-324, -0.0, 0.0, *powers, *edges]
        values += [-v for v in values]
        rows = [values[i : i + 3] for i in range(0, len(values) - len(values) % 3, 3)]
        for digits in range(1, 18):
            doc = {"re": rows, "im": [[v] * 4 for v in values]}
            expected = json.dumps(_round_floats_reference(doc, digits))
            assert json.dumps(round_floats(doc, digits)) == expected, digits
        # the exact ties, half to even like format
        assert round_floats([[123456789.5, 0.125, 1.0]], 9) == [[123456790.0, 0.125, 1.0]]
        assert round_floats([[0.125, 0.375, 2.5]], 2) == [[0.12, 0.38, 2.5]]

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.5, 0.25, 7], [0.5, 0.25, 0.125]],
            [[0.5, 0.25, True], [0.5, 0.25, 0.125]],
            [[0.5, 0.25, np.float64(1 / 3)], [0.5, 0.25, 0.125]],
            [(0.5, 0.25, 0.125), (0.5, 0.25, 0.125)],
            [[0.5, 0.25, 0.125], [0.5, 0.25]],
            [[]],
        ],
        ids=["int", "bool", "float64", "tuple-rows", "ragged", "empty-row"],
    )
    def test_round_floats_leaves_non_matrices_to_the_float_path(self, matrix, monkeypatch):
        gathered = []
        real = serialize._round_significant

        def recording(x, digits):
            gathered.append(x.size)
            return real(x, digits)

        monkeypatch.setattr(serialize, "_round_significant", recording)
        doc = {"m": matrix, "wide": [[1 / 3] * 3] * 2}
        expected = json.dumps(_round_floats_reference(doc, 9))
        assert json.dumps(round_floats(doc, 9)) == expected
        assert gathered == [6]  # the plain-float matrix only

    @pytest.mark.parametrize(
        "ensemble",
        [
            random_ensemble(16, 2, pure=False, seed=44),
            random_ensemble(4, 2, pure=True, seed=45),
            random_ensemble(2, 9, pure=False, seed=46),
            random_ensemble(2, 39, pure=True, seed=47),
        ],
        ids=["dense-pair-mixed", "dense-pair-pure", "qubit-shifted", "qubit-ball"],
    )
    def test_matrix_to_json_matches_float_reference(self, ensemble):
        sol = solve(ensemble)
        matrices = [sol.symmetry_op.matrix, *(m.matrix for m in sol.povm)]
        matrices.append(np.array([[-0.0, 1e-320 + 1e308j], [-1e308, 5e-324j]]))
        for m in matrices:
            assert json.dumps(matrix_to_json(m)) == json.dumps(_matrix_to_json_reference(m))
        doc = json.dumps(solution_to_json(sol))
        assert json.loads(doc)["K"] == _matrix_to_json_reference(sol.symmetry_op.matrix)

    @pytest.mark.parametrize(
        "priors, message",
        [
            ([[0.5], [0.5]], "priors: expected a flat array of numbers"),
            (["a", 0.5], "priors: entries must be numbers (priors[0] is 'a')"),
            ([0.5, "0.5"], "priors: entries must be numbers (priors[1] is '0.5')"),
            ([True, 0.0], "priors: entries must be numbers (priors[0] is True)"),
            ([0.5, math.nan], "priors: entries must be finite (priors[1] is nan)"),
            ([10**400, 0.5], "priors: entries must be numbers (int too large to convert to float)"),
        ],
    )
    def test_priors_diagnostics(self, priors, message):
        state = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError) as info:
            ensemble_from_json({"priors": priors, "states": [state, state]})
        assert str(info.value) == message

    def test_boolean_dim_rejected(self):
        with pytest.raises(ValueError, match="K.dim"):
            matrix_from_json({"dim": True, "re": [[1.0]], "im": [[0.0]]}, field="K")

    def test_bloch_vector_schema(self):
        from qdiscrim.serialize import bloch_to_json

        assert bloch_to_json(np.array([0.1, -0.2, 0.3])) == [0.1, -0.2, 0.3]


@pytest.fixture
def trine_file(tmp_path):
    path = tmp_path / "trine.json"
    path.write_text(json.dumps(ensemble_to_json(trine())))
    return str(path)


class TestCliSolve:
    def test_trine(self, trine_file, capsys):
        assert main(["solve", trine_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_guess"] == pytest.approx(2 / 3, abs=1e-9)

    def test_basis_versus_plus(self, tmp_path, capsys):
        e = WeightedEnsemble([0.5, 0.5], [from_bloch([0, 0, 1]), from_bloch([1, 0, 0])])
        path = tmp_path / "e.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_guess"] == pytest.approx(0.853553391, abs=1e-9)

    def test_verify_flag_appends_passing_certificate(self, trine_file, capsys):
        assert main(["solve", trine_file, "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "pass"

    def test_solution_reverifies_through_verify_command(self, trine_file, tmp_path, capsys):
        main(["solve", trine_file])
        solution_path = tmp_path / "sol.json"
        solution_path.write_text(capsys.readouterr().out)
        assert main(["verify", trine_file, str(solution_path)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "pass"
        assert main(["verify", trine_file, str(solution_path), "--legacy"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_general_prior_solution_reverifies(self, tmp_path, capsys):
        e = random_ensemble(2, 4, pure=False, seed=17)
        ensemble_path = tmp_path / "e.json"
        ensemble_path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(ensemble_path), "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "pass"
        solution_path = tmp_path / "sol.json"
        solution_path.write_text(json.dumps(doc))
        assert main(["verify", str(ensemble_path), str(solution_path), "--tol", "1e-8"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_near_duplicate_states_certify(self, tmp_path, capsys):
        # five pure states within 1e-9 of one direction, equal priors
        rng = np.random.default_rng(2)
        vectors = np.array([0.6, 0.0, 0.8]) + 1e-9 * rng.standard_normal((5, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        e = WeightedEnsemble(np.full(5, 0.2), [from_bloch(v) for v in vectors])
        path = tmp_path / "near.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(path), "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "pass"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"priors": [0.5')
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_unsupported_instance_exits_3(self, tmp_path, capsys):
        e = random_ensemble(3, 3, pure=True, seed=1)
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(path)]) == 3

    def test_verify_defaults_to_analytic_tolerance_on_every_path(self, tmp_path, capsys):
        for name, e in (
            ("ball", trine()),
            ("shifted", random_ensemble(2, 6, pure=False, seed=23)),
            ("helstrom", random_ensemble(4, 2, pure=False, seed=23)),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(ensemble_to_json(e)))
            assert main(["solve", str(path), "--verify"]) == 0
            cert = json.loads(capsys.readouterr().out)["certificate"]
            assert cert["tolerance"] == 1e-8 and cert["verdict"] == "pass", name

    def test_single_qutrit_state_certifies(self, tmp_path, capsys):
        e = random_ensemble(3, 1, pure=False, seed=2)
        path = tmp_path / "single.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(path), "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_guess"] == pytest.approx(1.0, abs=1e-9)
        assert doc["certificate"]["verdict"] == "pass"
        assert doc["certificate"]["tolerance"] == pytest.approx(1e-8)

    def test_out_flag_writes_file(self, trine_file, tmp_path):
        target = tmp_path / "result.json"
        assert main(["solve", trine_file, "--out", str(target)]) == 0
        assert json.loads(target.read_text())["p_guess"] == pytest.approx(2 / 3, abs=1e-9)

    @pytest.mark.parametrize(
        "ensemble",
        [
            trine(),
            random_ensemble(2, 8, pure=False, seed=31),
            random_ensemble(16, 2, pure=False, seed=32),
        ],
        ids=["trine", "qubit-mixed-8", "pair-mixed-16"],
    )
    def test_certificate_equals_verify_of_the_printed_document(self, ensemble, tmp_path, capsys):
        ensemble_path = tmp_path / "e.json"
        ensemble_path.write_text(json.dumps(ensemble_to_json(ensemble)))
        assert main(["solve", str(ensemble_path), "--verify"]) == 0
        printed = capsys.readouterr().out
        certificate = json.loads(printed)["certificate"]
        solution_path = tmp_path / "sol.json"
        solution_path.write_text(printed)
        assert main(["verify", str(ensemble_path), str(solution_path)]) == 0
        verified = json.loads(capsys.readouterr().out)
        assert list(certificate) == list(verified)
        for key in verified:
            assert certificate[key] == verified[key], key
        assert certificate["tolerance"] == 1e-8 and certificate["verdict"] == "pass"


class TestExitCodeMap:
    """main maps every package error to its documented exit code."""

    @pytest.mark.parametrize(
        "error",
        [
            cls
            for _, cls in inspect.getmembers(qdiscrim.errors, inspect.isclass)
            if issubclass(cls, DiscriminationError)
        ]
        + [ValueError],
        ids=lambda cls: cls.__name__,
    )
    def test_raised_error_exits_with_its_code(self, error, trine_file, monkeypatch, capsys):
        def failing_solve(ensemble):
            raise error("injected failure")

        monkeypatch.setattr("qdiscrim.cli.solve", failing_solve)
        expected = 3 if issubclass(error, (UnsupportedInstanceError, ValueError)) else 4
        assert main(["solve", trine_file, "--verify"]) == expected
        assert capsys.readouterr().err == "error: injected failure\n"


_ZERO = [[0.0, 0.0], [0.0, 0.0]]
# A defective state and the diagnostic that names it; the other four
# states of the five-state document are valid.
_DEFECTS = {
    "non-hermitian": (
        {"dim": 2, "re": [[0.5, 0.3], [0.1, 0.5]], "im": _ZERO},
        "matrix is not Hermitian: asymmetry 2.000e-01 > 1e-12",
    ),
    "trace-0.9": (
        {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.4]], "im": _ZERO},
        "state trace must be 1, got 0.9",
    ),
    "negative-eigenvalue": (
        {"dim": 2, "re": [[1.2, 0.0], [0.0, -0.2]], "im": _ZERO},
        "state has negative eigenvalue -2.000e-01",
    ),
    "nan": (
        {"dim": 2, "re": [[math.nan, 0.0], [0.0, 0.5]], "im": _ZERO},
        "matrix entries must be finite",
    ),
    "plus-1e308": (
        {"dim": 2, "re": [[0.5, 1e308], [1e308, 0.5]], "im": _ZERO},
        "state has negative eigenvalue -1.000e+308",
    ),
    "minus-1e308": (
        {"dim": 2, "re": [[0.5, -1e308], [-1e308, 0.5]], "im": _ZERO},
        "state has negative eigenvalue -1.000e+308",
    ),
    # the largest float over a trace just below 1 overflows, silently
    "max-float-over-trace": (
        {"dim": 2, "re": [[0.5, sys.float_info.max], [sys.float_info.max, 0.5 - 1e-9]],
         "im": _ZERO},
        "state has negative eigenvalue -inf",
    ),
}


def _five_states_with(bad_state) -> dict:
    doc = ensemble_to_json(random_ensemble(2, 5, pure=False, seed=8))
    doc["states"][2] = bad_state
    return json.loads(json.dumps(doc))


class TestBatchedParseDiagnostics:
    """The stacked parse names the defective state as the per-state parse did."""

    @pytest.mark.parametrize("defect", sorted(_DEFECTS))
    def test_defect_names_its_state(self, defect):
        bad_state, message = _DEFECTS[defect]
        with pytest.raises(ValueError) as info:
            ensemble_from_json(_five_states_with(bad_state))
        assert str(info.value) == f"states[2]: {message}"

    def test_mixed_dimensions_rejected(self):
        third = {"dim": 3, "re": (np.eye(3) / 3).tolist(), "im": np.zeros((3, 3)).tolist()}
        with pytest.raises(ValueError, match="states must share one dimension"):
            ensemble_from_json(_five_states_with(third))

    @pytest.mark.parametrize("defect", sorted(_DEFECTS))
    def test_cli_exits_cleanly(self, defect, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_five_states_with(_DEFECTS[defect][0])))
        assert main(["solve", str(path), "--verify"]) in (2, 3)
        err = capsys.readouterr().err
        assert err.startswith("error:") and "states[2]" in err
        assert "Traceback" not in err


def _rebuild_reference(doc):
    """The states of an ensemble document as the eigensolver parse, which the
    qubit closed form replaced, builds them: normalize the trace, diagonalize,
    reject eigenvalues below -1e-8, clip the rest and renormalize."""
    matrices = _matrices_from_json(doc["states"], "states", "ensemble")
    traces = np.trace(matrices, axis1=1, axis2=2).real
    values, vectors = _eigh(matrices / traces[:, None, None])
    negative = np.flatnonzero(values[:, -1] < -1e-8)
    if negative.size:
        i = int(negative[0])
        raise ValueError(f"states[{i}]: state has negative eigenvalue {values[i, -1]:.3e}")
    return _state_stack(values, vectors)


def _qubit_doc(vectors, digits=None) -> dict:
    """An equal-prior ensemble document of the states (I + v . sigma)/2."""
    vectors = np.asarray(vectors, dtype=float)
    doc = {
        "priors": [1.0 / len(vectors)] * len(vectors),
        "states": serialize._stack_to_json(_operators(1.0, vectors)),
    }
    return doc if digits is None else round_floats(doc, digits)


class TestQubitParse:
    """Qubit states are read as Bloch vectors, with no eigensolver, and agree
    with the diagonalize-clip-rebuild parse to rounding."""

    @staticmethod
    def _agrees(doc):
        parsed = ensemble_from_json(doc).matrices
        reference = _rebuild_reference(doc)
        assert not parsed.flags.writeable
        assert np.max(np.abs(parsed - reference)) <= 1e-15
        assert np.max(np.abs(np.trace(parsed, axis1=1, axis2=2) - 1.0)) <= 1e-15
        assert np.array_equal(parsed, parsed.conj().swapaxes(1, 2))
        return parsed

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_perfbench_qubit_decks(self, seed):
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        for case in workloads.deck("qubit", seed):
            self._agrees(json.loads(case.doc))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        vectors=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=8),
        radius=st.sampled_from([0.0, 1e-9, 0.3, 1.0 - 1e-12, 1.0, 1.0 + 5e-9]),
        digits=st.sampled_from([None, 9, 12]),
    )
    def test_states_match_the_rebuild(self, vectors, radius, digits):
        v = np.array(vectors)
        norms = np.linalg.norm(v, axis=1)
        v = np.where(norms[:, None] > 1e-3, v / np.maximum(norms, 1e-3)[:, None] * radius, v)
        self._agrees(_qubit_doc(v, digits))

    def test_pure_states_printed_at_9_digits_are_clipped(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((200, 3))
        doc = _qubit_doc(v / np.linalg.norm(v, axis=1)[:, None], digits=9)
        printed = _matrices_from_json(doc["states"], "states", "ensemble")
        printed = printed / np.trace(printed, axis1=1, axis2=2)[:, None, None]
        # rounding pushes some printed Bloch vectors past the sphere; parsing
        # clips those back onto it and keeps the rest
        outside = np.linalg.norm(_bloch_vectors(printed), axis=1) > 1.0 + 1e-11
        assert outside.sum() > 20
        parsed = self._agrees(doc)
        norms = np.linalg.norm(_bloch_vectors(parsed), axis=1)
        assert np.max(np.abs(norms[outside] - 1.0)) <= 1e-15
        assert np.max(norms) <= 1.0 + 1e-15
        assert np.min(np.linalg.eigvalsh(parsed)) >= -1e-15

    def test_negative_eigenvalue_threshold(self):
        directions = np.eye(3)
        accepted = _qubit_doc(directions * [1.0, 0.5, 1.0 + 1.9e-8])
        assert self._agrees(accepted).shape == (3, 2, 2)
        rejected = _qubit_doc(directions * [1.0, 0.5, 1.0 + 2.1e-8])
        messages = []
        for parse in (ensemble_from_json, _rebuild_reference):
            with pytest.raises(ValueError) as info:
                parse(rejected)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "states[2]: state has negative eigenvalue -1.050e-08"


_STATE = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": _ZERO}
_DIM_65 = {"dim": 65, "re": (np.eye(65) / 65).tolist(), "im": np.zeros((65, 65)).tolist()}
# Malformed documents and the field their diagnostic must name.
_FUZZ = {
    "non-numeric-priors": ({"priors": ["a", 0.5], "states": [_STATE, _STATE]}, "priors"),
    "nested-priors": ({"priors": [[0.5], [0.5]], "states": [_STATE, _STATE]}, "priors"),
    "boolean-prior": ({"priors": [True], "states": [_STATE]}, "priors"),
    "nan-prior": ({"priors": [math.nan, 0.5], "states": [_STATE, _STATE]}, "priors"),
    "huge-integer-prior": ({"priors": [10**400], "states": [_STATE]}, "priors"),
    "huge-integer-entry": (
        {"priors": [1.0], "states": [{"dim": 1, "re": [[10**400]], "im": [[0]]}]},
        "states[0]",
    ),
    "dim-65": ({"priors": [0.5, 0.5], "states": [_DIM_65, _DIM_65]}, "states[0].dim"),
    "empty-lists": ({"priors": [], "states": []}, "priors"),
    "mismatched-lists": ({"priors": [0.5, 0.5], "states": [_STATE]}, "priors and states"),
    "ragged-re": (
        {"priors": [1.0], "states": [{"dim": 2, "re": [[0.5, 0.0], [0.5]], "im": _ZERO}]},
        "states[0]",
    ),
    "state-not-object": ({"priors": [0.5, 0.5], "states": [_STATE, 3]}, "states[1]"),
    "top-level-array": ([_STATE], "ensemble"),
    "invalid-json": ("{not json", "invalid JSON"),
}


_HUGE = [[1e308, -1e308], [-1e308, 1e308]]


def _trine_candidate(defect: str) -> dict:
    """The trine's solution document with one defect."""
    doc = solution_to_json(solve(trine()))
    if defect.startswith("huge-povm"):
        for element in doc["povm"]:
            element["re"] = _HUGE
    if defect == "huge-povm-without-K":
        del doc["K"]
    elif defect == "nan-povm-entry":
        doc["povm"][0]["re"][0][0] = math.nan
    elif defect == "wrong-povm-count":
        doc["povm"].pop()
    elif defect == "missing-povm":
        del doc["povm"]
    elif defect == "povm-not-array":
        doc["povm"] = 5
    return doc


# Defective verify candidates for the trine and generate operators, with their exit codes.
_VERIFY_FUZZ = {
    "huge-povm-with-K": 4,
    "huge-povm-without-K": 4,
    "nan-povm-entry": 2,
    "wrong-povm-count": 2,
    "missing-povm": 2,
    "povm-not-array": 2,
}
_GENERATE_FUZZ = {
    "huge-operator": (_HUGE, 4),
    "non-hermitian": ([[0.5, 0.3], [0.1, 0.5]], 2),
    "trace-2": ([[1.0, 0.0], [0.0, 1.0]], 3),
    "nan-operator": ([[math.nan, 0.0], [0.0, 0.5]], 2),
}


def _one_error_line(err: str) -> bool:
    lines = err.splitlines()
    return "Traceback" not in err and sum(line.startswith("error:") for line in lines) == 1


class TestCliFuzz:
    """Every malformed document exits 2 or 3 with a diagnostic naming its field."""

    @pytest.mark.parametrize("case", sorted(_VERIFY_FUZZ))
    def test_verify_candidate_exits_with_its_code(self, case, trine_file, tmp_path, capsys):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(_trine_candidate(case)))
        assert main(["verify", trine_file, str(path)]) == _VERIFY_FUZZ[case]
        assert _one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("case", sorted(_GENERATE_FUZZ))
    def test_generate_operator_exits_with_its_code(self, case, tmp_path, capsys):
        re, code = _GENERATE_FUZZ[case]
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"dim": 2, "re": re, "im": _ZERO}))
        assert main(["generate", str(path), "--mode", "steering"]) == code
        assert _one_error_line(capsys.readouterr().err)

    def test_generate_names_the_file_and_k_of_a_non_hermitian_operator(self, tmp_path, capsys):
        # the defect that exits 2 as a verify candidate's K exits 2 from generate too
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"dim": 2, "re": _GENERATE_FUZZ["non-hermitian"][0], "im": _ZERO}))
        assert main(["generate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: K: matrix is not Hermitian")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("case", sorted(_FUZZ))
    def test_exits_cleanly_naming_the_field(self, case, tmp_path, capsys):
        doc, field = _FUZZ[case]
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["solve", str(path), "--verify"]) in (2, 3)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and field in err
        assert "Traceback" not in err

    def test_unwritable_out_exits_2_naming_the_file(self, trine_file, tmp_path, capsys):
        out = tmp_path / "missing-directory" / "solution.json"
        assert main(["solve", trine_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and len(err.splitlines()) == 1
        assert not out.exists()


def reference_certificate(ensemble, doc, tol, legacy=False) -> dict:
    """The element-by-element certificate path that cli._certificate must reproduce."""
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


def _printed(ensemble):
    """The ensemble as the CLI reads its file, and the rounded solution document it prints."""
    parsed = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(ensemble))))
    doc = round_floats(solution_to_json(solve(parsed)))
    return parsed, json.loads(json.dumps(doc, indent=2))


def _numpy_message(entries) -> str:
    try:
        np.asarray(entries, dtype=float)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("entries converted")


_RAGGED = [[0.5, 0.0], [0.5]]
_POVM_DEFECTS = {
    "non-hermitian": (
        {"dim": 2, "re": [[0.5, 0.3], [0.1, 0.5]], "im": _ZERO},
        "povm[1]: matrix is not Hermitian: asymmetry 2.000e-01 > 1e-12",
    ),
    "nan": (
        {"dim": 2, "re": [[math.nan, 0.0], [0.0, 0.5]], "im": _ZERO},
        "povm[1]: matrix entries must be finite",
    ),
    "inf": (
        {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, math.inf], [0.0, 0.0]]},
        "povm[1]: matrix entries must be finite",
    ),
    "ragged-re": (
        {"dim": 2, "re": _RAGGED, "im": _ZERO},
        f"povm[1]: entries must be numbers ({_numpy_message(_RAGGED)})",
    ),
    "not-an-object": (3, "povm[1]: expected an object with dim/re/im"),
    "missing-im": ({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}, "povm[1]: missing key 'im'"),
    "boolean-dim": (
        {"dim": True, "re": [[1.0]], "im": [[0.0]]},
        "povm[1].dim: expected an integer in 1..64, got True",
    ),
    "string-entry": (
        {"dim": 2, "re": [["a", 0.0], [0.0, 0.5]], "im": _ZERO},
        "povm[1]: entries must be numbers (could not convert string to float: 'a')",
    ),
    "3x3-element": (
        {"dim": 3, "re": (np.eye(3) / 3).tolist(), "im": np.zeros((3, 3)).tolist()},
        "candidate: povm must share one dimension, got [2, 3]",
    ),
    "empty-povm": (None, "expected 3 POVM elements, got 0"),
}


def _trine_with_bad_element(defect: str) -> dict:
    """The trine's solution document with povm[1] replaced by a defect (or no povm at all)."""
    doc = json.loads(json.dumps(solution_to_json(solve(trine()))))
    bad = _POVM_DEFECTS[defect][0]
    if bad is None:
        doc["povm"] = []
    else:
        doc["povm"][1] = bad
    return doc


def _trine_ensemble():
    return ensemble_from_json(ensemble_to_json(trine()))


class TestPovmParseDiagnostics:
    """The stacked POVM parse names the defective element as povm[i]."""

    @pytest.mark.parametrize("defect", sorted(_POVM_DEFECTS))
    def test_defect_names_its_element(self, defect):
        with pytest.raises(ValueError) as info:
            _certificate(_trine_ensemble(), _trine_with_bad_element(defect), ANALYTIC_TOL)
        assert str(info.value) == _POVM_DEFECTS[defect][1]

    @pytest.mark.parametrize("defect", sorted(_POVM_DEFECTS))
    def test_verify_exits_2_with_the_message(self, defect, trine_file, tmp_path, capsys):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(_trine_with_bad_element(defect)))
        assert main(["verify", trine_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert _one_error_line(err)
        assert err == f"error: {path}: {_POVM_DEFECTS[defect][1]}\n"

    def test_non_finite_operator_names_k(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"dim": 2, "re": [[math.inf, 0.0], [0.0, 0.5]], "im": _ZERO}))
        assert main(["generate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: K: matrix entries must be finite\n"


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record each call of module.name, through every qdiscrim module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("qdiscrim") and (
            getattr(loaded, name, None) is original
        ):
            monkeypatch.setattr(loaded, name, counted)
    return calls


class TestCertificateParse:
    """cli._certificate validates the POVM in one pass and matches the per-element path."""

    def test_one_validation_pass_at_n_1000(self, monkeypatch):
        ensemble, doc = _printed(random_ensemble(2, 1000, pure=False, seed=11))
        stacks = _count_calls(monkeypatch, qdiscrim.operators, "_hermitian_stack")
        parses = _count_calls(monkeypatch, qdiscrim.serialize, "matrix_from_json")
        assert _certificate(ensemble, doc, ANALYTIC_TOL)["verdict"] == "pass"
        assert len(stacks) <= 2
        assert len(parses) <= 1

    @pytest.mark.parametrize(
        "ensemble",
        [random_ensemble(2, n, pure=False, seed=n) for n in range(3, 40)]
        + [
            WeightedEnsemble(np.full(n, 1.0 / n), random_ensemble(2, n, pure=True, seed=n).states)
            for n in range(3, 40)
        ]
        + [random_ensemble(2, 1000, pure=False, seed=11)]
        + [random_ensemble(d, 2, pure=False, seed=d) for d in (4, 16, 64)],
        ids=lambda e: f"d{e.dim}-n{e.size}-{'uniform' if np.ptp(e.priors) == 0 else 'general'}",
    )
    def test_matches_reference_on_printed_documents(self, ensemble):
        parsed, doc = _printed(ensemble)
        for legacy in (False, True):
            assert _certificate(parsed, doc, ANALYTIC_TOL, legacy) == reference_certificate(
                parsed, doc, ANALYTIC_TOL, legacy
            )

    @pytest.mark.parametrize("defect", sorted(_POVM_DEFECTS) + sorted(_VERIFY_FUZZ))
    def test_defects_raise_the_reference_error_class(self, defect):
        if defect in _POVM_DEFECTS:
            doc = _trine_with_bad_element(defect)
        else:
            doc = json.loads(json.dumps(_trine_candidate(defect)))
        raised = []
        for certify in (_certificate, reference_certificate):
            with pytest.raises(Exception) as info:
                certify(_trine_ensemble(), doc, ANALYTIC_TOL)
            raised.append(type(info.value))
        assert raised[0] is raised[1]


def _run_python(*args, timeout=60):
    """Run a fresh interpreter that imports qdiscrim from this checkout."""
    src = str(Path(qdiscrim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestCliProcess:
    def test_huge_entries_exit_2_without_traceback(self, tmp_path):
        zero = [[0.0, 0.0], [0.0, 0.0]]
        doc = {"priors": [0.5, 0.5], "states": [
            {"dim": 2, "re": [[0.5, 1e308], [1e308, 0.5]], "im": zero},
            {"dim": 2, "re": [[0.5, -1e308], [-1e308, 0.5]], "im": zero},
        ]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = _run_python("-m", "qdiscrim.cli", "solve", str(path), "--verify")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("case", ["huge-povm-with-K", "huge-povm-without-K"])
    def test_huge_candidate_exits_4_without_traceback(self, case, trine_file, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(_trine_candidate(case)))
        proc = _run_python("-m", "qdiscrim.cli", "verify", trine_file, str(path))
        assert proc.returncode == 4, proc.stderr
        assert _one_error_line(proc.stderr), proc.stderr
        # no numpy warning precedes the diagnostic: stderr is that one line
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")

    def test_import_leaves_scipy_unloaded(self):
        proc = _run_python("-c", "import sys, qdiscrim; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv, codes",
        [
            (["solve", "{ensemble}", "--verify"], {0}),
            (["verify", "{ensemble}", "{solution}"], {0}),
            (["verify", "{ensemble}", "{solution}", "--legacy"], {0}),
            (["generate", "{operator}", "--mode", "identity"], {0}),
            (["generate", "{operator}", "--mode", "steering"], {0, 5}),
            (["sweep", "isosceles", "--steps", "3"], {0}),
            (["oracle", "{ensemble}", "--resolution", "0.05"], {0}),
        ],
        ids=["solve", "verify", "verify-legacy", "generate-identity", "generate-steering",
             "sweep", "oracle"],
    )
    def test_subcommand_leaves_scipy_unloaded(self, argv, codes, tmp_path):
        files = {
            "ensemble": ensemble_to_json(trine()),
            "solution": solution_to_json(solve(trine())),
            "operator": matrix_to_json(np.eye(3) / 3),
        }
        paths = {}
        for name, doc in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        args = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out.txt")]
        script = "import sys; from qdiscrim.cli import main; "
        script += "code = main(sys.argv[1:]); print(code, 'scipy' in sys.modules)"
        proc = _run_python("-c", script, *args)
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.split()
        assert int(code) in codes, proc.stderr
        assert loaded == "False"


class TestCliSweep:
    def test_isosceles_matches_closed_form(self, capsys):
        assert main(["sweep", "isosceles", "--steps", "20", "--start", "0.1", "--stop", "1.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,p_guess,support_size"
        for line in lines[1:]:
            theta, p, support = line.split(",")
            assert float(p) == pytest.approx((1 + math.sin(float(theta))) / 3, abs=1e-8)
            assert support == "2"

    def test_isosceles_saturates_past_right_angle(self, capsys):
        assert main(["sweep", "isosceles", "--steps", "8",
                     "--start", str(math.pi / 2), "--stop", str(math.pi)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(float(line.split(",")[1]) == pytest.approx(2 / 3, abs=1e-9) for line in lines)

    def test_rectangle_sweep_is_constant_half(self, capsys):
        assert main(["sweep", "rectangle", "--steps", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(float(line.split(",")[1]) == pytest.approx(0.5, abs=1e-9) for line in lines)

    def test_tetrahedron_sweep_tracks_purity(self, capsys):
        assert main(["sweep", "tetrahedron", "--steps", "9", "--start", "0.2", "--stop", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            f, p, support = line.split(",")
            assert float(p) == pytest.approx(0.25 + 0.25 * float(f), abs=1e-9)
            assert support == "4"

    def test_sweep_is_reproducible(self, capsys):
        args = ["sweep", "isosceles", "--steps", "7", "--start", "0.2", "--stop", "1.0"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "," in first and ";" not in first

    def test_invalid_ranges_exit_3(self, capsys):
        assert main(["sweep", "rectangle", "--steps", "5", "--start", "0.2", "--stop", "2.0"]) == 3
        assert main(["sweep", "isosceles", "--steps", "1"]) == 3
        assert main(["sweep", "tetrahedron", "--steps", "5", "--start", "0.0", "--stop", "1.0"]) == 3

    def test_json_format(self, capsys):
        assert main(["sweep", "isosceles", "--steps", "3", "--start", "0.3", "--stop", "0.9",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 3
        assert set(doc[0]) == {"parameter", "p_guess", "support_size"}


class TestCliGenerate:
    def test_identity_mode_qubit(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2) / 2)))
        assert main(["generate", str(path), "--mode", "identity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True
        assert doc["priors"] == [0.5, 0.5]

    def test_identity_mode_qutrit(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(3) / 3)))
        assert main(["generate", str(path), "--mode", "identity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True
        assert len(doc["states"]) == 3
        # nine-digit serialization caps the reverification accuracy near 1e-9
        ensemble = ensemble_from_json(doc)
        povm = [HermitianOperator(matrix_from_json(m)) for m in doc["povm"]]
        sym = HermitianOperator(matrix_from_json(doc["K"]))
        assert verify_kkt(ensemble, sym, povm, tol=1e-8).passed

    def test_identity_mode_rejects_other_operators(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(matrix_to_json(np.diag([0.6, 0.2]))))
        assert main(["generate", str(path), "--mode", "identity"]) == 3

    def test_uncertified_steering_exits_5_but_writes(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(matrix_to_json(np.diag([0.45, 0.25]))))
        out = tmp_path / "generated.json"
        code = main(["generate", str(path), "--mode", "steering", "--seed", "3",
                     "--out", str(out)])
        assert code == 5
        assert "uncertified" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["certified"] is False


class TestCliOracle:
    def test_oracle_value(self, trine_file, capsys):
        assert main(["oracle", trine_file, "--resolution", "1e-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(2 / 3, abs=2e-3)

    def test_fine_resolution_refines_without_a_fine_full_grid(self, trine_file, capsys):
        assert main(["oracle", trine_file, "--resolution", "1e-6"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        value = json.loads(out)["value"]
        assert 2 / 3 - 1e-9 <= value <= 2 / 3 + math.sqrt(3) * 1e-6

    @pytest.mark.parametrize("resolution", ["nan", "inf", "0", "-1"])
    def test_invalid_resolution_exits_3(self, resolution, trine_file, capsys):
        # an invalid parameter, like a sweep range, exits 3
        assert main(["oracle", trine_file, "--resolution", resolution]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert _one_error_line(err) and "resolution must be finite and positive" in err
