import importlib
import math

import numpy as np
import pytest

from qdiscrim import (
    DensityOperator,
    HermitianOperator,
    InfeasibleDualError,
    SteeringMeasurement,
    equivalence_check,
    generate_from_symmetry_operator,
    generate_qubit_class_element,
    identity_class_example,
    random_ensemble,
    reconstruct_povm,
    solve_qubit,
    to_bloch,
    verify_kkt,
)
from qdiscrim.operators import _eigh, purify
from qdiscrim.solve import ComplementarySet, WeightedEnsemble, complementary_states

from conftest import (
    NOT_REAL,
    compose_rotations_unitary,
    random_class_element_params,
    steering_measurement_for_state,
)

TRINE_DIRECTIONS = [
    np.array([math.sin(a), 0.0, math.cos(a)])
    for a in (0.0, 2 * math.pi / 3, -2 * math.pi / 3)
]


class TestSteeringMeasurement:
    def test_validation(self):
        with pytest.raises(ValueError, match="M0"):
            SteeringMeasurement(HermitianOperator(np.diag([1.5, 0.0])))
        with pytest.raises(ValueError, match="M0"):
            SteeringMeasurement(HermitianOperator(np.diag([-0.1, 0.5])))
        m = SteeringMeasurement(HermitianOperator(np.diag([1.0, 0.25])))
        assert np.allclose(m.second_outcome, np.diag([0.0, 0.75]))

    def test_spectrum_checks_read_eigenvalues_only(self, monkeypatch, rng):
        # the bounds 0 <= M0 <= I and K >= 0 need eigenvalues only: the two
        # remaining eigenvector decompositions of a d=8 steering generate are
        # purify's and complementary_states'
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counting(matrix, real=real, name=name):
                calls[name] += 1
                return real(matrix)

            monkeypatch.setattr(np.linalg, name, counting)
        vectors = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        measurements = [SteeringMeasurement(np.outer(v, v.conj())) for v in vectors]
        assert calls == {"eigh": 0, "eigvalsh": 3}
        k = np.diag(rng.uniform(0.1, 1.0, 8)).astype(complex)
        generate_from_symmetry_operator(k / (2 * np.trace(k).real), measurements)
        assert calls["eigh"] == 2


class TestIdentityClassExample:
    def test_qubit_case_is_orthogonal_pair(self):
        out = identity_class_example(2)
        assert out.certified
        assert np.allclose(out.ensemble.priors, [0.5, 0.5])
        assert np.allclose(out.ensemble.states[0].matrix, np.diag([1.0, 0.0]))
        assert np.allclose(out.ensemble.states[1].matrix, np.diag([0.0, 1.0]))
        assert out.symmetry_op.trace() == pytest.approx(1.0)

    def test_qutrit_complements_spread_over_other_basis_states(self):
        out = identity_class_example(3)
        expected = np.diag([0.0, 0.5, 0.5])
        assert np.max(np.abs(out.complementary.states[0].matrix - expected)) <= 1e-12

    def test_all_small_dimensions_certify_tightly(self):
        for d in range(2, 9):
            out = identity_class_example(d)
            assert out.certified
            cert = verify_kkt(out.ensemble, out.symmetry_op, out.povm, tol=1e-10)
            assert cert.passed, (d, cert.residuals())
            assert np.allclose(out.steering_probs, 1.0 / d, atol=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            identity_class_example(1)

    @pytest.mark.parametrize("dim", [2.5, True, "3"])
    def test_names_a_dimension_that_is_not_an_integer(self, dim):
        with pytest.raises(ValueError) as info:
            identity_class_example(dim)
        assert str(info.value) == f"dim must be an integer, got {dim!r}"


class TestGenerateFromSymmetryOperator:
    def test_qubit_identity_with_z_projectors(self):
        measurements = [
            SteeringMeasurement(HermitianOperator(np.diag([1.0, 0.0]))),
            SteeringMeasurement(HermitianOperator(np.diag([0.0, 1.0]))),
        ]
        out = generate_from_symmetry_operator(HermitianOperator(np.eye(2) / 2), measurements)
        assert out.certified
        blochs = sorted(round(float(to_bloch(s)[2]), 6) for s in out.ensemble.states)
        assert blochs == [-1.0, 1.0]

    def test_decomposition_identity_holds_even_uncertified(self, rng):
        sym = HermitianOperator(np.diag([0.45, 0.25]))
        measurements = []
        for _ in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            measurements.append(SteeringMeasurement(HermitianOperator(np.outer(v, v.conj()))))
        out = generate_from_symmetry_operator(sym, measurements)
        normalized = sym.matrix / sym.trace()
        for x in range(out.ensemble.size):
            p = out.steering_probs[x]
            sigma = out.complementary.states[x]
            mix = p * out.ensemble.states[x].matrix + (1 - p) * sigma.matrix
            assert np.max(np.abs(mix - normalized)) <= 1e-9

    def test_skewed_measurements_fail_certification(self, rng):
        sym = HermitianOperator(np.diag([0.45, 0.25]))
        measurements = []
        for _ in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            measurements.append(SteeringMeasurement(HermitianOperator(np.outer(v, v.conj()))))
        out = generate_from_symmetry_operator(sym, measurements)
        assert not out.certified
        assert out.povm is None

    def test_infeasible_decomposition_is_uncertified_not_an_error(self):
        # scaled outcomes skew the firing probabilities enough that the
        # prescribed operator stops dominating some weighted state
        sym = HermitianOperator(np.diag([0.45, 0.25]))
        local = np.random.default_rng(1)
        measurements = []
        for _ in range(3):
            v = local.standard_normal(2) + 1j * local.standard_normal(2)
            v /= np.linalg.norm(v)
            scale = local.uniform(0.05, 1.0)
            measurements.append(
                SteeringMeasurement(HermitianOperator(scale * np.outer(v, v.conj())))
            )
        out = generate_from_symmetry_operator(sym, measurements)
        assert not out.certified
        assert out.povm is None

    def test_higher_dimensional_bases_certify(self, rng):
        # rotated orthonormal bases with non-uniform priors discriminate
        # perfectly; consistent steering must certify through the kernel
        # measurement search
        from conftest import compose_rotations_unitary
        from qdiscrim import DensityOperator

        for trial in range(6):
            d = 3 + trial % 3
            q = rng.dirichlet(np.ones(d) * 5)
            u = compose_rotations_unitary(d, rng)
            states = [
                DensityOperator(HermitianOperator(np.outer(u[:, x], u[:, x].conj())))
                for x in range(d)
            ]
            sym = HermitianOperator(u @ np.diag(q) @ u.conj().T)
            measurements = [
                steering_measurement_for_state(sym, states[x], float(q[x]))
                for x in range(d)
            ]
            out = generate_from_symmetry_operator(sym, measurements)
            assert out.certified
            assert np.max(np.abs(out.ensemble.priors - q)) <= 1e-9
            assert verify_kkt(out.ensemble, out.symmetry_op, out.povm, tol=1e-8).passed

    def test_consistent_measurements_round_trip(self, rng):
        # build steering measurements from a decomposition known to be
        # optimal, then recover the prescribed operator by re-solving
        for seed in range(15):
            local = np.random.default_rng(seed)
            value, center, units, a, q = random_class_element_params(local)
            element = generate_qubit_class_element(value, center, units, a, q)
            assert element.certified
            sym = element.symmetry_op
            measurements = [
                steering_measurement_for_state(sym, rho, q[x] / value)
                for x, rho in enumerate(element.ensemble.states)
            ]
            out = generate_from_symmetry_operator(sym, measurements)
            assert out.certified
            assert np.max(np.abs(out.ensemble.priors - q)) <= 1e-9
            resolved = solve_qubit(out.ensemble)
            assert np.max(np.abs(resolved.symmetry_op.matrix - sym.matrix)) <= 1e-7
            assert np.max(np.abs(out.steering_probs - q / value)) <= 1e-9

    def test_rejects_invalid_operators(self):
        ms = [SteeringMeasurement(HermitianOperator(np.eye(2) / 2))]
        with pytest.raises(ValueError, match="positive semidefinite"):
            generate_from_symmetry_operator(HermitianOperator(np.diag([1.0, -0.2])), ms)
        with pytest.raises(ValueError, match="trace"):
            generate_from_symmetry_operator(HermitianOperator(np.eye(2)), ms)
        with pytest.raises(ValueError, match="never fires"):
            generate_from_symmetry_operator(
                HermitianOperator(np.eye(2) / 2),
                [SteeringMeasurement(HermitianOperator(np.zeros((2, 2))))],
            )

    @pytest.mark.parametrize(
        "measurements, message",
        [
            ([], "at least one steering measurement is required"),
            (
                [SteeringMeasurement(np.eye(2) / 2), SteeringMeasurement(np.eye(3) / 2)],
                "steering measurement dimension does not match the operator",
            ),
            # a raw matrix is validated as a SteeringMeasurement
            ([np.diag([1.5, 0.0])], "steering outcome must satisfy 0 <= M0 <= I"),
            ([np.eye(3) / 2], "steering measurement dimension does not match the operator"),
            ([[[1.0, 0.0], [0.0]]], "matrix is not a rectangular array of numbers"),
        ],
    )
    def test_rejects_invalid_measurements(self, measurements, message):
        with pytest.raises(ValueError) as info:
            generate_from_symmetry_operator(np.eye(2) / 2, measurements)
        assert str(info.value) == message

    def test_raw_matrices_steer_as_measurements(self, rng):
        k = np.diag([0.5, 0.3, 0.2]).astype(complex)
        vectors = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        raw = [np.outer(v, v.conj()) for v in vectors] + [np.eye(3)]
        got = generate_from_symmetry_operator(k, raw)
        expected = generate_from_symmetry_operator(k, [SteeringMeasurement(m) for m in raw])
        assert _output_bytes(got) == _output_bytes(expected)
        assert got.complementary.states[-1] is None  # the identity always fires

    def test_positivity_is_checked_on_the_normalized_operator(self):
        # -0.8e-10 in K is -1.6e-10 in K / trace(K), beyond the 1e-10 a state allows
        with pytest.raises(ValueError) as info:
            generate_from_symmetry_operator(np.diag([0.3, 0.2, -0.8e-10]), [np.eye(3) / 2])
        assert str(info.value) == "symmetry operator must be positive semidefinite"


def _steering_bytes(ensemble, comp, steering_probs):
    """The bytes of a steered ensemble, its complementary set and its firing probabilities."""
    return {
        "priors": ensemble.priors.tobytes(),
        "states": ensemble.matrices.tobytes(),
        "complementary weights": comp.weights.tobytes(),
        "complementary states": [None if s is None else s.matrix.tobytes() for s in comp.states],
        "steering_probs": np.asarray(steering_probs).tobytes(),
    }


def _output_bytes(out):
    """The bytes of every array a FactoryOutput holds, field by field."""
    povm = None if out.povm is None else np.stack([m.matrix for m in out.povm]).tobytes()
    return _steering_bytes(out.ensemble, out.complementary, out.steering_probs) | {
        "K": out.symmetry_op.matrix.tobytes(), "povm": povm, "certified": out.certified,
    }


def reference_steering(symmetry_op, measurements):
    """The former generator, one measurement at a time: each steered operator
    tr_A[(M (x) I) |psi><psi|] and its state built and checked on its own."""
    sym = HermitianOperator(symmetry_op)
    total = sym.trace()
    psi = purify(DensityOperator(sym.matrix / total)).amplitudes.reshape(sym.dim, sym.dim)
    fire_probs, states, complements = [], [], []
    for m in measurements:
        steered = psi.T @ m.first_outcome.matrix.T @ psi.conj()
        p = float(np.trace(steered).real)
        fire_probs.append(p)
        states.append(DensityOperator(steered / p))
        if 1 - p <= 1e-12:
            complements.append(None)
        else:
            rest = psi.T @ m.second_outcome.T @ psi.conj()
            complements.append(DensityOperator(rest / (1 - p)))
    fire_probs = np.asarray(fire_probs)
    ensemble = WeightedEnsemble(fire_probs / float(np.sum(fire_probs)), states)
    return ensemble, ComplementarySet((1.0 - fire_probs) * total, complements), fire_probs


class TestStackedSteering:
    """One product over the stacked measurements reproduces the per-measurement
    loop bit for bit."""

    @pytest.mark.parametrize("d, count", [(2, 1), (2, 3), (3, 2), (8, 3), (16, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_measurement_loop(self, d, count, seed):
        rng = np.random.default_rng([d, count, seed])
        k = random_ensemble(d, 1, pure=False, seed=seed).matrices[0] * rng.uniform(0.5, 1.0)
        vectors = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        outcomes = [np.outer(v, v.conj()) * rng.uniform(0.2, 1.0) for v in vectors]
        outcomes[0] = np.eye(d)  # always fires: its complementary state is absent
        measurements = [SteeringMeasurement(m) for m in outcomes]
        out = generate_from_symmetry_operator(k, measurements)
        assert _steering_bytes(out.ensemble, out.complementary, out.steering_probs) == (
            _steering_bytes(*reference_steering(k, measurements))
        )

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_identity_class_matches_the_per_measurement_loop(self, d):
        out = identity_class_example(d)
        eye = np.eye(d, dtype=complex)
        measurements = [SteeringMeasurement(np.outer(e, e.conj())) for e in eye]
        assert _steering_bytes(out.ensemble, out.complementary, out.steering_probs) == (
            _steering_bytes(*reference_steering(eye / d, measurements))
        )


class TestGenerateQubitClassElement:
    def test_recovers_trine(self):
        out = generate_qubit_class_element(
            2 / 3, np.zeros(3), TRINE_DIRECTIONS, [2 / 3] * 3, [1 / 3] * 3
        )
        assert out.certified
        assert out.symmetry_op.trace() == pytest.approx(2 / 3, abs=1e-12)
        for x, u in enumerate(TRINE_DIRECTIONS):
            assert np.max(np.abs(to_bloch(out.ensemble.states[x]) + u)) <= 1e-12
        resolved = solve_qubit(out.ensemble)
        assert resolved.p_guess == pytest.approx(2 / 3, abs=1e-9)

    def test_antipodal_directions_give_perfect_pair(self):
        out = generate_qubit_class_element(
            1.0,
            np.zeros(3),
            [np.array([0, 0, 1.0]), np.array([0, 0, -1.0])],
            [1.0, 1.0],
            [0.5, 0.5],
        )
        assert out.certified
        assert out.symmetry_op.trace() == pytest.approx(1.0)
        overlap = np.trace(
            out.ensemble.states[0].matrix @ out.ensemble.states[1].matrix
        ).real
        assert abs(overlap) <= 1e-12

    def test_random_admissible_parameters_certify(self):
        for seed in range(25):
            local = np.random.default_rng(10_000 + seed)
            value, center, units, a, q = random_class_element_params(local)
            out = generate_qubit_class_element(value, center, units, a, q)
            assert out.certified
            assert out.symmetry_op.trace() == pytest.approx(value, abs=1e-12)
            assert np.max(np.abs(out.steering_probs - q / value)) <= 1e-12

    def test_two_outputs_from_same_operator_are_equivalent(self):
        a = generate_qubit_class_element(
            2 / 3, np.zeros(3), TRINE_DIRECTIONS, [2 / 3] * 3, [1 / 3] * 3
        )
        rot = [
            np.array([math.sin(t), 0.0, math.cos(t)])
            for t in (0.5, 0.5 + 2 * math.pi / 3, 0.5 - 2 * math.pi / 3)
        ]
        b = generate_qubit_class_element(2 / 3, np.zeros(3), rot, [2 / 3] * 3, [1 / 3] * 3)
        assert a.certified and b.certified
        assert equivalence_check(a.symmetry_op, b.symmetry_op, tol=1e-12)
        assert a.symmetry_op.trace() == b.symmetry_op.trace()

    def test_parameter_validation(self):
        u_pair = [np.array([0, 0, 1.0]), np.array([0, 0, -1.0])]
        with pytest.raises(ValueError, match="sum to 2"):
            generate_qubit_class_element(1.0, np.zeros(3), u_pair, [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="sum to zero"):
            generate_qubit_class_element(
                1.0, np.zeros(3), [u_pair[0], u_pair[0]], [1.0, 1.0], [0.5, 0.5]
            )
        with pytest.raises(ValueError, match="unit"):
            generate_qubit_class_element(
                1.0, np.zeros(3), [np.array([0, 0, 0.5]), np.array([0, 0, -0.5])],
                [1.0, 1.0], [0.5, 0.5],
            )
        with pytest.raises(ValueError, match="exceed every prior"):
            generate_qubit_class_element(0.5, np.zeros(3), u_pair, [1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="positive semidefinite"):
            generate_qubit_class_element(
                0.52, np.array([0.51, 0.0, 0.0]), u_pair, [1.0, 1.0], [0.5, 0.5]
            )
        with pytest.raises(ValueError, match="center norm"):
            generate_qubit_class_element(
                0.52, np.array([0.6, 0.0, 0.0]), u_pair, [1.0, 1.0], [0.5, 0.5]
            )

    @pytest.mark.parametrize(
        "weights, priors, message",
        [
            ([2.0], [0.5, 0.5], "directions, weights and priors must have equal length"),
            ([1.0, 1.0], [1.0], "priors and states must be non-empty and of equal length"),
            ([2.5, -0.5], [0.5, 0.5], "POVM weights must be non-negative"),
            ([1.0, 1.0], [0.5, 0.4], "priors must sum to 1, got 0.9"),
            ([1.0, 1.0], [1.5, -0.5], "priors must be strictly positive and at most 1"),
            # every check rejects NaN, so no NaN reaches the unchecked closed forms
            ([1.0, 1.0], [math.nan, 0.5], "priors must be strictly positive and at most 1"),
            ([math.nan, 1.0], [0.5, 0.5], "POVM weights must be non-negative"),
            ([[1.0], [1.0, 0.0]], [0.5, 0.5], f"POVM weights {NOT_REAL}"),
            ([1.0, 1.0], ["0.5", "0.5"], f"priors {NOT_REAL}"),
        ],
    )
    def test_rejects_malformed_lists(self, weights, priors, message):
        u_pair = [np.array([0, 0, 1.0]), np.array([0, 0, -1.0])]
        with pytest.raises(ValueError) as info:
            generate_qubit_class_element(1.0, np.zeros(3), u_pair, weights, priors)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "center, directions, message",
        [
            (np.zeros(4), [[0, 0, 1.0], [0, 0, -1.0]], "center must have 3 components, got 4"),
            (np.zeros(3), [[0, 0, 1.0, 0], [0, 0, -1.0, 0]],
             "directions must be an (n, 3) array, got shape (2, 4)"),
            (np.zeros(3), [[0, 0, math.nan], [0, 0, -1.0]], "directions must be unit vectors"),
            ([math.nan, 0, 0], [[0, 0, 1.0], [0, 0, -1.0]],
             "center norm exceeds the target value; operator not PSD"),
            (np.array([0.9j, 0, 0]), [[0, 0, 1.0], [0, 0, -1.0]], f"center {NOT_REAL}"),
            (np.zeros(3), [[0, 0, 1.0], [0, 1.0]], f"directions {NOT_REAL}"),
        ],
    )
    def test_names_malformed_vectors(self, center, directions, message):
        with pytest.raises(ValueError) as info:
            generate_qubit_class_element(1.0, center, directions, [1.0, 1.0], [0.5, 0.5])
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_names_a_non_finite_target_value(self, value):
        u_pair = [[0, 0, 1.0], [0, 0, -1.0]]
        with pytest.raises(ValueError) as info:
            generate_qubit_class_element(value, np.zeros(3), u_pair, [1.0, 1.0], [0.5, 0.5])
        assert str(info.value) == f"target value must be finite, got {value!r}"


def reference_kernel_rank_ones(sigma, dim):
    """The former candidate dictionary: rank-one projectors in the kernel of sigma."""
    if sigma is None:
        vectors = [np.eye(dim, dtype=complex)[:, j] for j in range(dim)]
    else:
        values, eigvecs = _eigh(sigma.matrix)
        vectors = [eigvecs[:, j] for j in range(dim) if values[j] <= 1e-9]
    out = [np.outer(v, v.conj()) for v in vectors]
    # pairwise combinations reach the off-diagonal part of the kernel block
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            for extra in (vectors[i] + vectors[j], vectors[i] + 1j * vectors[j]):
                extra = extra / np.linalg.norm(extra)
                out.append(np.outer(extra, extra.conj()))
    return out


def reference_kernel_povm_search(ensemble, comp):
    """The former search: scipy's NNLS for the identity over the kernel candidates."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    d = ensemble.dim
    blocks = [reference_kernel_rank_ones(comp.states[x], d) for x in range(ensemble.size)]
    columns = [m for block in blocks for m in block]
    if not columns:
        return None
    stacked = np.stack([np.concatenate([m.reshape(-1).real, m.reshape(-1).imag]) for m in columns])
    target = np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d)])
    weights, residual = nnls(stacked.T, target)
    if residual > 1e-8 * d:
        return None
    povm = []
    offset = 0
    for block in blocks:
        element = np.zeros((d, d), dtype=complex)
        for m in block:
            element += weights[offset] * m
            offset += 1
        povm.append(HermitianOperator(element))
    return povm


def kernel_search(out, comp):
    """reconstruct_povm, with None for a search that finds no measurement."""
    try:
        return reconstruct_povm(out.ensemble, comp)
    except InfeasibleDualError:
        return None


def _rotated_basis(d, rng):
    """Consistent steering of a rotated orthonormal basis with non-uniform priors."""
    q = rng.dirichlet(np.ones(d) * 5)
    u = compose_rotations_unitary(d, rng)
    states = [
        DensityOperator(HermitianOperator(np.outer(u[:, x], u[:, x].conj()))) for x in range(d)
    ]
    sym = HermitianOperator(u @ np.diag(q) @ u.conj().T)
    measurements = [steering_measurement_for_state(sym, states[x], float(q[x])) for x in range(d)]
    return generate_from_symmetry_operator(sym, measurements)


def _all_firing(d, rng):
    """One state: M0 = I always fires, so the complement is absent and all d^2 candidates enter."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    sym = HermitianOperator(rho / np.trace(rho).real)
    return generate_from_symmetry_operator(sym, [SteeringMeasurement(np.eye(d))])


def _tilted_basis(d, theta, rng):
    """Steering of I/d by a basis whose first vector is tilted toward the second.

    Every firing probability stays 1/d and every complement keeps a
    one-dimensional kernel, so the search runs; its d candidates resolve
    the identity only when the tilt is below the acceptance threshold.
    """
    u = compose_rotations_unitary(d, rng)
    vectors = [u[:, x] for x in range(d)]
    vectors[0] = math.cos(theta) * vectors[0] + math.sin(theta) * vectors[1]
    measurements = [SteeringMeasurement(np.outer(v, v.conj())) for v in vectors]
    return generate_from_symmetry_operator(HermitianOperator(np.eye(d) / d), measurements)


def _searched(out, tol=1e-8):
    """Both searches on one output: (found, certified) for the new one and the reference."""
    comp = complementary_states(out.symmetry_op, out.ensemble)
    assert any(reference_kernel_rank_ones(comp.states[x], out.ensemble.dim)
               for x in range(out.ensemble.size))
    results = []
    for povm in (kernel_search(out, comp), reference_kernel_povm_search(out.ensemble, comp)):
        passed = povm is not None and verify_kkt(out.ensemble, out.symmetry_op, povm, tol).passed
        results.append((povm is not None, passed))
    return results


class TestKernelPovmSearch:
    """The hull-membership search against the former NNLS search."""

    def test_identity_class_matches_reference(self):
        for d in range(2, 9):
            (found, certified), expected = _searched(identity_class_example(d))
            assert found and certified, d
            assert (found, certified) == expected, d

    def test_rotated_bases_match_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(6):
            (found, certified), expected = _searched(_rotated_basis(3 + trial % 3, rng))
            assert found and certified, trial
            assert (found, certified) == expected, trial

    def test_all_firing_single_state_matches_reference(self):
        rng = np.random.default_rng(6)
        for d in range(2, 9):
            (found, certified), expected = _searched(_all_firing(d, rng))
            assert found and certified, d
            assert (found, certified) == expected, d

    @pytest.mark.parametrize("theta", [1e-10, 1e-6, 1e-3, 0.1, 0.7])
    def test_tilted_bases_match_reference(self, theta):
        rng = np.random.default_rng([7, int(-math.log10(theta))])
        for d in (3, 4, 5, 8):
            (found, certified), expected = _searched(_tilted_basis(d, theta, rng))
            assert (found, certified) == expected, d
            assert found == certified == (theta < 1e-8), d

    def test_certification_decomposes_nothing_in_the_search(self, monkeypatch):
        # the kernels come from the spectra complementary_states already holds
        factory = importlib.import_module("qdiscrim.factory")
        real_eigh, real_search = np.linalg.eigh, factory.reconstruct_povm
        inside, shapes, searches = [False], [], []

        def counting_eigh(matrix):
            if inside[0]:
                shapes.append(np.shape(matrix))
            return real_eigh(matrix)

        def search(*args):
            inside[0] = True
            try:
                searches.append(real_search(*args))
                return searches[-1]
            finally:
                inside[0] = False

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(factory, "reconstruct_povm", search)
        rng = np.random.default_rng(8)
        outputs = [identity_class_example(8), _rotated_basis(5, rng), _tilted_basis(4, 1e-10, rng)]
        assert all(out.certified for out in outputs)
        assert len(searches) == len(outputs)
        assert shapes == []
