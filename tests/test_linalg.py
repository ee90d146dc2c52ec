import numpy as np
import pytest

from chansim import linalg
from chansim.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPsd,
    SumNotIdentity,
    TraceNotOne,
)
from conftest import char_poly_eigenvalues, random_density, random_hermitian, random_povm


def test_diagonal_spectrum_sorted():
    vals = linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])


def test_pauli_x_spectrum():
    vals = linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_random_hermitian_matches_char_poly_oracle(rng):
    for _ in range(25):
        h = random_hermitian(rng, 4)
        got = linalg.hermitian_eigenvalues(h)
        want = char_poly_eigenvalues(h)
        assert np.max(np.abs(got - want)) < 1e-9


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalue_sum_equals_trace(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        h = random_hermitian(rng, n, scale=3.0)
        vals = linalg.hermitian_eigenvalues(h)
        assert abs(vals.sum() - np.trace(h).real) < 1e-9


def test_validate_povm_projective_ok():
    linalg.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_validate_povm_halves_ok():
    linalg.validate_povm([np.eye(2) / 2, np.eye(2) / 2])


def test_validate_povm_not_psd_reports_index():
    with pytest.raises(NotPsd) as exc:
        linalg.validate_povm([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])
    assert exc.value.index == 1


def test_validate_povm_not_hermitian_reports_index():
    skew = np.array([[0.5, 0.25], [0.0, 0.5]])
    with pytest.raises(NotHermitian) as exc:
        linalg.validate_povm([np.eye(2) - skew, skew])
    assert exc.value.index == 0


def test_validate_povm_sum_not_identity():
    with pytest.raises(SumNotIdentity):
        linalg.validate_povm([np.eye(2) / 2, np.eye(2) / 3])


def test_validate_povm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.validate_povm([np.eye(2), np.eye(3)])


def test_validate_density_cases():
    linalg.validate_density(np.eye(3) / 3)
    linalg.validate_density(np.diag([1.0, 0.0]))
    with pytest.raises(TraceNotOne):
        linalg.validate_density(np.diag([0.6, 0.6]))
    with pytest.raises(NotPsd):
        linalg.validate_density(np.diag([1.5, -0.5]))


def test_born_matrix_projective_identity():
    povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert np.allclose(linalg.born_matrix(povm, states), np.eye(2))


def test_born_matrix_trivial_povm(rng):
    povm = [np.eye(2) / 2, np.eye(2) / 2]
    a = linalg.born_matrix(povm, [random_density(rng, 2)])
    assert np.allclose(a, 0.5)


def test_born_matrix_column_stochastic(rng):
    for _ in range(20):
        povm = random_povm(rng, 3, 3)
        states = [random_density(rng, 3) for _ in range(2)]
        a = linalg.born_matrix(povm, states)
        assert np.max(np.abs(a.sum(axis=0) - 1.0)) < 1e-10
        # cross-check: tr(E_i rho) summed over i equals tr((sum E_i) rho)
        for j, rho in enumerate(states):
            direct = np.trace(sum(povm) @ rho).real
            assert abs(a[:, j].sum() - direct) < 1e-12


def test_sub_povm_eigenvalues_bounded(rng):
    for _ in range(20):
        povm = random_povm(rng, 3, 4)
        k = len(povm)
        subset = [i for i in range(k) if rng.random() < 0.5]
        if not subset:
            continue
        partial = sum(povm[i] for i in subset)
        vals = linalg.hermitian_eigenvalues(partial)
        assert vals[0] >= -1e-9 and vals[-1] <= 1 + 1e-9


def test_entropies():
    assert linalg.shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0)
    assert linalg.shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert linalg.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)


def test_stacked_born_matrix_equals_the_trace_of_each_product(rng):
    # one stacked product and trace, bit for bit the per-pair tr(E rho)
    for _ in range(60):
        n, k, l = int(rng.integers(1, 13)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
        povm = [random_hermitian(rng, n) for _ in range(k)]
        states = [random_density(rng, n) for _ in range(l)]
        direct = np.array([[np.trace(e @ r).real for r in states] for e in povm])
        assert np.array_equal(linalg.born_matrix(povm, states), direct)
    assert np.array_equal(linalg.born_matrix(povm, np.array(states)), direct)


def test_the_first_faulty_outcome_is_reported():
    # outcome 0 is not PSD and outcome 2 is not Hermitian: outcome 0 first
    povm = [np.diag([-0.5, 0.5]), np.diag([1.0, 0.25]), np.array([[0.5, 0.25], [0.0, 0.25]])]
    with pytest.raises(NotPsd) as exc:
        linalg.validate_povm(povm)
    assert exc.value.index == 0
    with pytest.raises(NotHermitian) as exc:
        linalg.validate_povm(povm[1:])
    assert exc.value.index == 1


def test_validate_povm_returns_the_stack(rng):
    povm = random_povm(rng, 3, 4)
    stack = linalg.validate_povm(povm)
    assert stack.shape == (4, 3, 3) and np.array_equal(stack, np.array(povm))


def test_validate_density_of_a_stack(rng):
    states = [random_density(rng, 3) for _ in range(4)]
    spectra = linalg.validate_density(states)
    assert np.array_equal(spectra, [np.linalg.eigvalsh(r) for r in states])
    assert np.array_equal(linalg.validate_density(states[2]), spectra[2])
    skew = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    bad = [states[0], np.diag([1.5, -0.25, -0.25]), skew]
    with pytest.raises(NotPsd, match="state 1") as exc:
        linalg.validate_density(bad)
    assert exc.value.index == 1
    with pytest.raises(NotHermitian) as exc:
        linalg.validate_density(bad[::2])
    assert exc.value.index == 1
    with pytest.raises(TraceNotOne, match="state 0"):
        linalg.validate_density([np.diag([0.5, 0.5 + 1e-6]), np.eye(2) / 2])
    with pytest.raises(DimensionMismatch, match="state 1 is 2-square, expected 3"):
        linalg.validate_density([states[0], np.eye(2) / 2])
