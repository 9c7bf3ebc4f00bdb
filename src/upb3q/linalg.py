"""Self-contained dense Hermitian kernels: Jacobi eigensolver, flows, distances.

The eigensolver is a cyclic complex Jacobi iteration, adequate and fast for
the n <= 16 matrices used here.  It takes one matrix or a stack and rotates
every matrix of a stack at once, with the same bits as one at a time.  numpy
is used for array plumbing only; no LAPACK eigenroutine is called in library
code.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class NonHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NoConvergence(RuntimeError):
    """Jacobi sweep limit reached before the off-diagonal norm target."""


class ShapeMismatch(ValueError):
    """Operands do not have matching shapes."""


# Largest stack one internal solve rotates at once; longer stacks are solved
# in chunks of this size, which bounds the solver's scratch memory.  Every
# sweep of a solve pays a fixed ~0.75-1.6 ms of per-pair numpy calls whatever
# the stack holds (a sweep of 256 matrices takes 2.7-4.2 ms), so fuller
# chunks are cheaper per matrix.  Measured on the benchmark's solver inputs
# (best of 15 repetitions, five runs on a shared 2-core VM): orbit(128)'s 1024
# matrices take 49-74 ms in chunks of 128, 36-56 ms at 256 and 32-45 ms at
# 512; one order's 192 preparation probes 18-27 ms at 128 and 12-20 ms at 192
# or more.  512 would raise the orbit and verify runs' peak RSS by 1.5-1.8 MB
# (+4-5%).
_MAX_STACK = 256


def _check_hermitian(mat, tol):
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN, which the test below rejects
        residue = np.abs(mat - np.swapaxes(mat.conj(), -1, -2)).max(initial=0.0)
    if not residue <= tol:  # also rejects NaN, which compares False
        raise NonHermitian(f"Hermiticity residue {residue:.3e} > {tol:.1e}")
    return mat


def _check_count(name, n, minimum):
    """Raise ValueError unless n is an integer >= minimum; a bool is not a count."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")


def _check_tolerance(name, tol):
    """Raise ValueError unless tol is a finite real number >= 0."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")


def _check_8x8(rho):
    """rho as a complex array; ShapeMismatch unless it is 8x8 or a stack (..., 8, 8)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ShapeMismatch(f"expected an 8x8 matrix or a stack (..., 8, 8), got shape {rho.shape}")
    return rho


def _check_matrix(m, n):
    """m as a complex array; ShapeMismatch unless it is n x n, NonHermitian unless Hermitian."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (n, n):
        raise ShapeMismatch(f"expected a {n}x{n} matrix, got shape {m.shape}")
    return _check_hermitian(m, 1e-12)


def _check_time(t):
    """Raise ValueError unless the flow time t is a finite real number."""
    if not (isinstance(t, numbers.Real) and math.isfinite(t)):
        raise ValueError(f"flow time must be a finite real number, got {t!r}")


def _offdiag_norms(a):
    """Off-diagonal Frobenius norm of each matrix of a batch-last (n, n, B) stack.

    Each matrix is summed over its own contiguous row of n*n squares, as one
    matrix alone would be: a sum down the batch axis rounds differently.
    """
    off = np.moveaxis(a, -1, 0).copy()
    diag = np.arange(a.shape[0])
    off[:, diag, diag] = 0.0
    return np.sqrt(np.sum(np.abs(off.reshape(len(off), -1)) ** 2, axis=1))


def jacobi_eigh(mat, herm_tol=1e-10, conv_tol=1e-14, max_sweeps=100, want_vectors=True):
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix or a stack.

    Repeatedly zeroes each off-diagonal pair (p, q) with a unitary plane
    rotation until the off-diagonal Frobenius norm drops below conv_tol.
    A stack runs the same cyclic sweep on every matrix at once; each matrix
    gets exactly the rotations, and so the bits, it would get on its own.

    Args:
        mat: n x n complex Hermitian array (n <= 16 intended), or a stack of
            them with any leading batch shape, (..., n, n).
        herm_tol: allowed input Hermiticity residue.
        conv_tol: off-diagonal Frobenius norm at which iteration stops.
        max_sweeps: sweep budget before NoConvergence is raised.
        want_vectors: accumulate the eigenvector unitary as well.

    Returns:
        (w, V) with w ascending real eigenvalues, shape (..., n); V has the
        matching eigenvectors as columns, shape (..., n, n) (None if
        want_vectors is False).

    Raises:
        ValueError (herm_tol not finite and >= 0, conv_tol not finite and
        > 0, max_sweeps not an integer >= 0), NonHermitian (any matrix),
        both checked before any sweep; NoConvergence (any matrix left
        unconverged), ShapeMismatch.
    """
    _check_tolerance("herm_tol", herm_tol)
    _check_tolerance("conv_tol", conv_tol)
    if conv_tol == 0.0:  # no off-diagonal norm is below 0: the budget would run out
        raise ValueError(f"conv_tol must be > 0, got {conv_tol!r}")
    _check_count("max_sweeps", max_sweeps, 0)
    a = _check_hermitian(mat, herm_tol)
    batch, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(math.prod(batch), n, n)
    w = np.empty(a.shape[:2])
    v = np.empty(a.shape, dtype=complex) if want_vectors else None
    for start in range(0, len(a), _MAX_STACK):
        chunk = slice(start, start + _MAX_STACK)
        _jacobi_stack(a[chunk], conv_tol, max_sweeps, w[chunk], None if v is None else v[chunk])
    return w.reshape(batch + (n,)), None if v is None else v.reshape(batch + (n, n))


def _jacobi_stack(mats, conv_tol, max_sweeps, w_out, v_out):
    """Diagonalize a (B, n, n) stack into w_out (B, n) and, if given, v_out.

    The solve works on its own batch-last copy, av[i, j, b] = mats[b, i, j],
    so that each row or column slice of a rotation is a run of contiguous
    batch elements.  The eigenvector unitary V is carried below A in the same
    (2n, n, B) array, so that each column rotation A <- A U also does
    V <- V U.  Matrices that have converged are retired between sweeps, so
    the rest of the stack keeps rotating without them.
    """
    n = mats.shape[-1]
    diag = np.arange(n)
    av = np.empty((n if v_out is None else 2 * n, n, len(mats)), dtype=complex)
    av[:n] = mats.transpose(1, 2, 0)  # a copy: the caller's matrices are never rotated
    if v_out is not None:
        av[n:] = np.eye(n)[:, :, None]
    live = np.arange(len(mats))  # stack positions of the matrices still rotating
    norms = _offdiag_norms(av[:n])
    for sweep in range(max_sweeps + 1):
        done = norms < conv_tol
        if done.any():
            fin = np.moveaxis(av.compress(done, axis=-1), -1, 0)
            evals = fin[:, diag, diag].real
            order = np.argsort(evals, axis=-1, kind="stable")
            w_out[live[done]] = np.take_along_axis(evals, order, axis=-1)
            if v_out is not None:
                v_out[live[done]] = np.take_along_axis(fin[:, n:], order[:, None, :], axis=-1)
            keep = ~done
            av, live, norms = av.compress(keep, axis=-1), live[keep], norms[keep]
        if not len(live) or sweep == max_sweeps:
            break
        _sweep(av)
        norms = _offdiag_norms(av[:n])
    if len(live):
        raise NoConvergence(
            f"off-diagonal norm {norms.max():.3e} > {conv_tol:.1e} "
            f"after {max_sweeps} sweeps ({len(live)} of {len(mats)} matrices)"
        )


def _sweep(av):
    """One cyclic sweep over the (p, q) pairs of a batch-last (n or 2n, n, B) stack, in place.

    A matrix whose a[p, q] is exactly zero is left out of that rotation, as
    the scalar iteration skips it: the angle formulas would turn a zero pair
    into a rotation by pi.  |a_pq| is hypot(re, im), which rounds like the
    scalar abs() (complex np.abs differs in the last bits on about a third of
    inputs), and the angle operands are made contiguous, since numpy may
    choose another arctan2 loop for strided ones.  cos(theta) is made complex
    once per pair; a real-by-complex multiply would cast it on every call.
    """
    n = av.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            hit = av[p, q].nonzero()[0]
            if len(hit) == av.shape[-1]:
                hit = slice(None)  # plain views instead of gathered copies
            elif not len(hit):
                continue
            apq = av[p, q, hit]
            re, im = apq.real.copy(), apq.imag.copy()
            gap = (av[p, p, hit] - av[q, q, hit]).real.copy()
            theta = 0.5 * np.arctan2(2.0 * np.hypot(re, im), gap)
            c = np.cos(theta).astype(complex)
            s = np.sin(theta)
            ph = np.exp(1j * np.arctan2(im, re))
            cph = np.conj(ph)
            # Columns: A <- A U with U mixing columns p and q (and V <- V U).
            _mix(av[:, p], av[:, q], hit, c, s * cph, -s * ph)
            # Rows: A <- U^dagger A.
            _mix(av[p], av[q], hit, c, s * ph, -s * cph)


def _mix(xs, ys, hit, c, s_xy, s_yx):
    """x, y <- c x + s_xy y, s_yx x + c y for the batch members hit of the (m, B) rows xs, ys."""
    x, y = xs[:, hit], ys[:, hit]  # views when hit is a slice, gathered copies otherwise
    s_yx_x, c_y = s_yx * x, c * y
    np.add(c * x, s_xy * y, out=x)
    np.add(s_yx_x, c_y, out=y)
    if not isinstance(hit, slice):
        xs[:, hit], ys[:, hit] = x, y


def eigen_flow(w, v, t, rho):
    """exp(-itH) rho exp(+itH) from H's eigenvalues w and eigenvectors v.

    Lets a caller that flows by one H to many times diagonalize it once.
    Raises ValueError unless t is a finite real number and ShapeMismatch
    unless rho has the shape of H.
    """
    _check_time(t)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != np.shape(v):
        raise ShapeMismatch(f"rho has shape {rho.shape}, H has shape {np.shape(v)}")
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return u @ rho @ u.conj().T


def frobenius_distance(a, b):
    """Frobenius norm of (a - b); raises ShapeMismatch on incompatible shapes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.sum(np.abs(d) ** 2)))
