"""The Jacobi solver is the package's own eigensolver; numpy.linalg is used
here only as an independent oracle."""

import numpy as np
import pytest

from upb3q.linalg import (
    _MAX_STACK,
    _offdiag_norms,
    NoConvergence,
    NonHermitian,
    ShapeMismatch,
    eigen_flow,
    frobenius_distance,
    jacobi_eigh,
)
from upb3q.dynamics import rodrigues_flow
from upb3q.pauli import to_coherence
from upb3q.states import in_set_C, rho_upb

RNG = np.random.default_rng(99)


def random_hermitian(n):
    m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_jacobi_matches_numpy_eigenvalues(n):
    for _ in range(5):
        m = random_hermitian(n)
        w, _ = jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)
        assert np.abs(w - ref).max() < 1e-12


def test_jacobi_eigenvectors_diagonalize():
    m = random_hermitian(8)
    w, v = jacobi_eigh(m)
    # unitarity and the eigen-equation itself
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-13
    assert np.abs(m @ v - v * w).max() < 1e-12


def test_jacobi_handles_degenerate_spectrum():
    # projector-like matrix with eigenvalues {0 x4, 1/4 x4}
    v, _ = np.linalg.qr(RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8)))
    m = v @ np.diag([0.0] * 4 + [0.25] * 4) @ v.conj().T
    w, _ = jacobi_eigh(m)
    assert np.abs(w - np.array([0.0] * 4 + [0.25] * 4)).max() < 1e-13


def test_jacobi_diagonal_input_short_circuits():
    w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.abs(np.abs(v) - np.eye(3)[:, [1, 2, 0]]).max() < 1e-14


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_rejects_nan_before_sweeping():
    # NaN compares False against any tolerance; it must fail the Hermiticity
    # check, not run out the sweep budget and raise NoConvergence
    m = random_hermitian(8)
    m[2, 5] = m[5, 2] = np.nan
    with pytest.raises(NonHermitian):
        jacobi_eigh(m)


def test_jacobi_no_convergence_budget():
    m = random_hermitian(8)
    with pytest.raises(NoConvergence):
        jacobi_eigh(m, max_sweeps=0)


@pytest.mark.parametrize("name, bad", [
    ("herm_tol", float("nan")), ("herm_tol", float("inf")), ("herm_tol", -1e-10),
    ("conv_tol", float("nan")), ("conv_tol", float("inf")), ("conv_tol", 0.0),
    ("conv_tol", -1e-14), ("max_sweeps", 2.5), ("max_sweeps", -1),
    ("max_sweeps", True), ("max_sweeps", False),
])
def test_jacobi_rejects_bad_arguments_before_any_solve(solver_calls, name, bad):
    # a NaN, zero or negative conv_tol used to burn 100 sweeps and raise
    # NoConvergence; conv_tol=inf returned the unrotated diagonal, so the
    # minimum eigenvalue of rho_upb came back as 0.09375 instead of 0;
    # max_sweeps=True ran one sweep and reported "after True sweeps"
    with pytest.raises(ValueError, match=name):
        jacobi_eigh(rho_upb(), **{name: bad})
    assert solver_calls == []


def test_stack_across_chunk_boundaries_equals_one_matrix_calls():
    # five members, so that the chunk boundaries at multiples of _MAX_STACK
    # fall on different members and the last chunk holds only three matrices
    v, _ = np.linalg.qr(RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8)))
    sparse = random_hermitian(8)
    sparse[np.abs(sparse) < 0.6] = 0.0  # exact zeros exercise the skipped pairs
    members = [random_hermitian(8), v @ np.diag([0.0] * 4 + [0.25] * 4) @ v.conj().T,
               sparse, np.diag(RNG.normal(size=8)).astype(complex), random_hermitian(8)]
    size = 2 * _MAX_STACK + 3
    stack = np.array([members[i % len(members)] for i in range(size)])
    for want_vectors in (False, True):
        w, vecs = jacobi_eigh(stack, want_vectors=want_vectors)
        alone = [jacobi_eigh(m, want_vectors=want_vectors) for m in members]
        for i in range(size):
            w1, v1 = alone[i % len(members)]
            assert np.array_equal(w[i], w1)
            assert v1 is None if vecs is None else np.array_equal(vecs[i], v1)


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("want_vectors", [False, True])
def test_jacobi_leaves_its_argument_unchanged(size, want_vectors):
    # the solve rotates a batch-last working copy; the input is complex, so
    # _check_hermitian passes the caller's array through uncopied, and for one
    # matrix its transpose is already contiguous, so a no-copy conversion
    # would have rotated the caller's array in place
    stack = np.array([random_hermitian(8) for _ in range(size)])
    mat = stack[0] if size == 1 else stack
    before = mat.tobytes()
    jacobi_eigh(mat, want_vectors=want_vectors)
    assert mat.tobytes() == before


def test_offdiag_norms_sum_each_matrix_in_its_own_order():
    # a sum down the batch axis rounds differently in the last bit, which
    # can move the sweep at which a matrix retires
    sparse = random_hermitian(8)
    sparse[np.abs(sparse) < 0.6] = 0.0
    members = [random_hermitian(8) * 10.0 ** -e for e in range(0, 17, 2)]
    members += [sparse, sparse * 1e-9, np.diag(RNG.normal(size=8)).astype(complex), np.zeros((8, 8))]
    stack = np.array(members)
    norms = _offdiag_norms(stack.transpose(1, 2, 0).copy())
    for i, m in enumerate(members):
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        assert np.array_equal(norms[i], np.sqrt(np.sum(np.abs(off.ravel()) ** 2)))


def test_conjugation_flow_preserves_spectrum_and_trace():
    h = random_hermitian(8)
    rho = random_hermitian(8)
    rho = rho @ rho.T.conj()
    rho /= np.trace(rho).real
    eig = jacobi_eigh(h)
    out = eigen_flow(*eig, 0.7, rho)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho)).max() < 1e-11
    # t=0 is the identity map
    assert np.abs(eigen_flow(*eig, 0.0, rho) - rho).max() < 1e-14


def test_conjugation_flow_group_law():
    h = random_hermitian(8)
    rho = random_hermitian(8)
    eig = jacobi_eigh(h)
    one = eigen_flow(*eig, 0.9, eigen_flow(*eig, 0.4, rho))
    two = eigen_flow(*eig, 1.3, rho)
    assert np.abs(one - two).max() < 1e-12


def test_frobenius_distance():
    a = np.eye(2)
    b = np.zeros((2, 2))
    assert abs(frobenius_distance(a, b) - np.sqrt(2)) < 1e-15
    with pytest.raises(ShapeMismatch):
        frobenius_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), "0.3", None, 1 + 2j])
def test_flows_reject_non_finite_time(t):
    # a non-finite time used to give a NaN matrix with only a numpy warning,
    # and a string, None or a complex time a bare TypeError from math.isfinite
    h = np.diag([0.5, -0.5, 0.25, 0.0]).astype(complex)
    rho = np.full((4, 4), 0.25, dtype=complex)
    w, v = jacobi_eigh(h)
    with pytest.raises(ValueError, match="flow time must be a finite real number"):
        eigen_flow(w, v, t, rho)
    with pytest.raises(ValueError, match="flow time must be a finite real number"):
        rodrigues_flow(222, t, to_coherence(rho_upb()))


def test_rejected_time_or_tolerance_costs_no_eigen_solve(solver_calls):
    # the call used to diagonalize its matrix before its check raised
    rho = np.eye(8, dtype=complex) / 8.0
    with pytest.raises(ValueError, match="tol"):
        in_set_C(rho, tol=float("nan"))
    assert solver_calls == []
