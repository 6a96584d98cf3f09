import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdiscrim
import qdiscrim.errors

from qdiscrim import (
    HermitianOperator,
    WeightedEnsemble,
    from_bloch,
    random_ensemble,
    verify_kkt,
)
from qdiscrim.cli import main
from qdiscrim.errors import DiscriminationError, UnsupportedInstanceError
from qdiscrim.serialize import (
    certificate_to_json,
    ensemble_from_json,
    ensemble_to_json,
    matrix_from_json,
    matrix_to_json,
    round_floats,
    solution_to_json,
)
from qdiscrim.families import trine
from qdiscrim.solve import solve


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
    "non-hermitian": ([[0.5, 0.3], [0.1, 0.5]], 3),
    "trace-2": ([[1.0, 0.0], [0.0, 1.0]], 3),
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
