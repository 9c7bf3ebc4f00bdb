"""The Jacobi solver is the package's own eigensolver; numpy.linalg is used
here only as an independent oracle."""

import re
import tracemalloc

import numpy as np
import pytest

from upb3q import linalg
from upb3q.linalg import (
    _MAX_STACK_BYTES,
    _SLICE,
    _offdiag_norms,
    NoConvergence,
    NonHermitian,
    ShapeMismatch,
    frobenius_distance,
    jacobi_eigh,
)
from upb3q import dynamics
from upb3q.dynamics import orbit
from upb3q.states import rho_upb

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


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", [0, _SLICE + 7, 3 * _SLICE - 1], ids=["first", "middle", "last"])
def test_non_finite_entry_in_any_slice_is_not_hermitian(solver_calls, value, where):
    # the Hermiticity residue is taken over one slice of the stack at a time;
    # a NaN residue (a NaN pair, or inf - inf) in any slice must fail the
    # check, whatever the finite residues of the other slices: folding the
    # slices with `if not r <= residue: residue = r` drops an early NaN, and
    # the solve then burns its sweep budget and raises NoConvergence instead
    stack = np.repeat(np.eye(8, dtype=complex)[None], 3 * _SLICE, axis=0)
    stack[where, 0, 1] = stack[where, 1, 0] = value
    with pytest.raises(NonHermitian):
        jacobi_eigh(stack)
    assert solver_calls == []


@pytest.mark.parametrize("scale", [1.0, 10.0, 1e4, 1e8])
def test_jacobi_stop_is_relative_to_the_matrix_norm(scale):
    # rounding leaves about eps x ||A||_F off the diagonal: with a stop at an
    # absolute 1e-14, the 1e4 and 1e8 rows spent all 100 sweeps and raised
    # NoConvergence, as 10 x some dense 8x8s of norm about 8 did
    m = scale * random_hermitian(8)
    w, v = jacobi_eigh(m)
    ref = np.linalg.eigvalsh(m)
    assert np.abs(w - ref).max() < 1e-14 * np.abs(ref).max()
    assert np.abs(m @ v - v * w).max() < 1e-13 * scale


def test_jacobi_rejects_entries_whose_squares_overflow(solver_calls):
    # np.full((2, 2), 1e300) used to raise numpy's RuntimeWarning "overflow
    # encountered in square", then NoConvergence after 100 sweeps
    with pytest.raises(ValueError, match="finite Frobenius norm, got squares that overflow"):
        jacobi_eigh(np.full((2, 2), 1e300))
    assert solver_calls == []


@pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3)])
def test_jacobi_rejects_non_square_matrices(solver_calls, shape):
    with pytest.raises(ShapeMismatch, match=re.escape(f"must have shape (..., n, n), got shape {shape}")):
        jacobi_eigh(np.zeros(shape))
    assert solver_calls == []


def test_jacobi_no_convergence_budget():
    m = random_hermitian(8)
    with pytest.raises(NoConvergence):
        jacobi_eigh(m, max_sweeps=0)


@pytest.mark.parametrize("name, bad", [
    ("herm_tol", float("nan")), ("herm_tol", float("inf")), ("herm_tol", -1e-10),
    ("conv_tol", float("nan")), ("conv_tol", float("inf")), ("conv_tol", 0.0),
    ("conv_tol", -1e-14), ("max_sweeps", 2.5), ("max_sweeps", -1),
    ("max_sweeps", True), ("max_sweeps", False), ("herm_tol", False), ("conv_tol", True),
    ("want_vectors", "no"), ("want_vectors", None), ("want_vectors", 0), ("want_vectors", 1.0),
])
def test_jacobi_rejects_bad_arguments_before_any_solve(solver_calls, name, bad):
    # a NaN, zero or negative conv_tol used to burn 100 sweeps and raise
    # NoConvergence; conv_tol=inf returned the unrotated diagonal, so the
    # minimum eigenvalue of rho_upb came back as 0.09375 instead of 0;
    # max_sweeps=True ran one sweep and reported "after True sweeps"; a bool
    # tolerance was read as 0 or 1; want_vectors="no" returned eigenvectors
    with pytest.raises(ValueError, match=name):
        jacobi_eigh(rho_upb(), **{name: bad})
    assert solver_calls == []


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_stack_across_chunk_boundaries_equals_one_matrix_calls(solver_calls, dtype):
    # five members, so that the chunk boundaries, every 512 complex or 1024
    # real 8x8 matrices, fall on different members and the last chunk holds
    # only three matrices; a real stack takes the real rotation throughout
    real = dtype is np.float64

    def draw():  # a random Hermitian matrix, or its real part: a real symmetric one
        m = random_hermitian(8)
        return m.real if real else m

    g = RNG.normal(size=(8, 8))
    v, _ = np.linalg.qr(g if real else g + 1j * RNG.normal(size=(8, 8)))
    sparse = draw()
    sparse[np.abs(sparse) < 0.6] = 0.0  # exact zeros exercise the skipped pairs
    members = [draw(), v @ np.diag([0.0] * 4 + [0.25] * 4) @ v.conj().T,
               sparse, np.diag(RNG.normal(size=8)).astype(dtype), draw()]
    chunk = _MAX_STACK_BYTES // (8 * 8 * np.dtype(dtype).itemsize)
    size = 2 * chunk + 3
    stack = np.array([members[i % len(members)] for i in range(size)])
    assert stack.dtype == dtype
    for want_vectors in (False, True):
        solver_calls.clear()
        w, vecs = jacobi_eigh(stack, want_vectors=want_vectors)
        assert solver_calls == [chunk, chunk, 3]
        alone = [jacobi_eigh(m, want_vectors=want_vectors) for m in members]
        for i in range(size):
            w1, v1 = alone[i % len(members)]
            assert np.array_equal(w[i], w1)
            assert v1 is None if vecs is None else np.array_equal(vecs[i], v1)


def orbit_stack(samples):
    """The one stack of states and transposes that orbit(samples) hands jacobi_eigh, as the solver receives it."""
    stacks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "jacobi_eigh", lambda stack, **kw: stacks.append(stack) or jacobi_eigh(stack, **kw))
        orbit(samples)
    [stack] = stacks
    return stack


@pytest.mark.parametrize("samples", [232, 240, 248, 256, "diagonal_first_half"])
def test_orbit_block_solve_scratch_stays_under_twice_the_stack(samples):
    # the eigenvalue-only solve of the orbit's whole stack, 928-1024 matrices
    # (each state and its 3 partial transposes) that nearly fill one real
    # chunk: its working copy, the norms and Hermiticity residues taken
    # _SLICE matrices at a time, the in-place retirement and _mix's four
    # scratch rows stay under 2x the stack. A copy of the whole working stack
    # at each retirement and full-stack temporaries took 2.25x; five scratch
    # rows with the angle temporaries still live took 2.116x at N = 120, 128
    # and 136 (then 1004-1908 matrices, the state and its reflection), where
    # a zero pair in some matrix makes _mix gather its rows. The worst
    # retirement: 1024 matrices whose first 512 are diagonal retire those at
    # once, and the other 512 move into their slots in one gather
    if samples == "diagonal_first_half":
        stack = orbit_stack(256)
        stack[:512] *= np.eye(8)
    else:
        stack = orbit_stack(samples)
    assert stack.dtype == np.float64 and stack.flags.c_contiguous
    assert len(stack) <= _MAX_STACK_BYTES // stack[0].nbytes  # one chunk
    tracemalloc.start()
    try:
        jacobi_eigh(stack, want_vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stack.nbytes


@pytest.mark.parametrize("kind", ["orbit", "dense"])
def test_real_and_complex_rotations_agree_in_the_same_sweeps(monkeypatch, kind):
    # one input, solved once as float64 and once as complex128 with zero
    # imaginary parts: the two rotations turn by the same angles
    if kind == "orbit":
        stack = orbit_stack(64).astype(complex)
    else:
        m = np.random.default_rng(54).normal(size=(54, 8, 8))
        rho = m @ np.swapaxes(m, -1, -2)  # 54 dense real density matrices, generic spectra
        stack = (rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]).astype(complex)
    sweeps = []
    inner = linalg._sweep
    monkeypatch.setattr(linalg, "_sweep", lambda av: sweeps.append(av.dtype.kind) or inner(av))
    w_complex = jacobi_eigh(stack, want_vectors=False)[0]
    w_real = jacobi_eigh(stack.real, want_vectors=False)[0]
    assert sweeps.count("f") == sweeps.count("c") > 0
    assert np.abs(w_real - w_complex).max() <= 1e-15


@pytest.mark.parametrize("pair", [(1.0, 1.0, 5e-324), (0.0, 1e-323, 5e-324), (3e-310, 1e-310, 2e-310),
                                  (1e-300, 1e-300, -7e-320), (1.0, 0.0, 5e-324)])
def test_real_rotation_of_a_subnormal_pair_stays_orthogonal(pair):
    # a_pq subnormal, and the gap a_pp - a_qq zero or subnormal too: hypot of
    # the unscaled pair would round to a few subnormal ulps, and c^2 + s^2
    # would miss 1 by up to 1/2
    app, aqq, apq = pair
    m = np.array([[app, apq, 0.5], [apq, aqq, 0.0], [0.5, 0.0, 2.0]])
    w, v = jacobi_eigh(m)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-15
    assert np.abs(w - np.linalg.eigvalsh(m)).max() < 1e-15
    assert np.abs(w - jacobi_eigh(m.astype(complex))[0]).max() < 1e-15


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
def test_jacobi_returns_float_values_and_complex_vectors_for_every_dtype(dtype):
    m = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]], dtype=dtype)
    w, v = jacobi_eigh(m)
    assert (w.dtype, v.dtype) == (np.float64, np.complex128)
    assert jacobi_eigh(m, want_vectors=False)[0].dtype == np.float64
    assert np.abs(w - [1.0, 3.0, 5.0]).max() < 1e-15
    assert np.abs(m @ v - v * w).max() < 1e-15


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("want_vectors", [False, True])
def test_jacobi_leaves_its_argument_unchanged(size, want_vectors):
    # the solve rotates a batch-last working copy; the input is complex, so
    # _array passes the caller's array through uncopied, and for one
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


def test_frobenius_distance():
    a = np.eye(2)
    b = np.zeros((2, 2))
    assert abs(frobenius_distance(a, b) - np.sqrt(2)) < 1e-15
    with pytest.raises(ShapeMismatch):
        frobenius_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("a, b, match", [
    (np.full((8, 8), np.nan), np.eye(8), "entries must be finite, got a NaN or infinite entry"),
    (np.eye(8), np.diag([np.inf] + [0.0] * 7), "entries must be finite, got a NaN or infinite entry"),
    (np.full((8, 8), np.inf), np.full((8, 8), np.inf), "entries must be finite, got a NaN or infinite entry"),
    (np.full((8, 8), 1e200), np.eye(8), "Frobenius distance must be finite, got inf"),
    (np.full((8, 8), "a"), np.eye(8), "entries must be numbers, got dtype <U1"),
    (np.eye(8), np.full((8, 8), None), "entries must be numbers, got dtype object"),
    (np.eye(8, dtype=bool), np.eye(8), "entries must be numbers, got dtype bool"),
])
def test_frobenius_distance_is_finite_or_raises(a, b, match):
    # a NaN entry used to give a silent nan, a string entry numpy's bare
    # UFuncTypeError; a NaN or inf entry fails the input check, and an
    # overflowing square the check on the result, with no warning
    with pytest.raises(ValueError, match=match):
        frobenius_distance(a, b)


def test_jacobi_takes_a_numpy_bool_for_want_vectors():
    w, v = jacobi_eigh(np.eye(2), want_vectors=np.bool_(False))
    assert v is None and np.array_equal(w, [1.0, 1.0])
    assert jacobi_eigh(np.eye(2), want_vectors=np.True_)[1].shape == (2, 2)


@pytest.mark.parametrize("mat", ["abc", np.array([["1", "0"], ["0", "1"]]), [[None, 0], [0, 1]]],
                         ids=["string", "string-matrix", "none-entry"])
def test_jacobi_requires_numeric_entries(solver_calls, mat):
    # jacobi_eigh("abc") used to fail inside numpy with "complex() arg is a
    # malformed string"
    with pytest.raises(ValueError, match="matrix entries must be numbers, got dtype"):
        jacobi_eigh(mat)
    assert solver_calls == []
