"""Self-contained dense Hermitian kernels: Jacobi eigensolver, flows, distances.

The eigensolver is a cyclic complex Jacobi iteration, adequate and fast for
the n <= 16 matrices used here.  numpy is used for array plumbing only; no
LAPACK eigenroutine is called in library code.
"""

from __future__ import annotations

import numpy as np


class NonHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NoConvergence(RuntimeError):
    """Jacobi sweep limit reached before the off-diagonal norm target."""


class ShapeMismatch(ValueError):
    """Operands do not have matching shapes."""


def _check_hermitian(mat, tol):
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {mat.shape}")
    residue = np.abs(mat - mat.conj().T).max()
    if not residue <= tol:  # also rejects NaN, which compares False
        raise NonHermitian(f"Hermiticity residue {residue:.3e} > {tol:.1e}")
    return mat


def _offdiag_norm(mat):
    off = mat - np.diag(np.diag(mat))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def jacobi_eigh(mat, herm_tol=1e-10, conv_tol=1e-14, max_sweeps=100, want_vectors=True):
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Repeatedly zeroes each off-diagonal pair (p, q) with a unitary plane
    rotation until the off-diagonal Frobenius norm drops below conv_tol.

    Args:
        mat: n x n complex Hermitian array (n <= 16 intended).
        herm_tol: allowed input Hermiticity residue.
        conv_tol: off-diagonal Frobenius norm at which iteration stops.
        max_sweeps: sweep budget before NoConvergence is raised.
        want_vectors: accumulate the eigenvector unitary as well.

    Returns:
        (w, V) with w ascending real eigenvalues; V has the matching
        eigenvectors as columns (None if want_vectors is False).

    Raises:
        NonHermitian, NoConvergence, ShapeMismatch.
    """
    a = _check_hermitian(mat, herm_tol).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=complex) if want_vectors else None

    converged = _offdiag_norm(a) < conv_tol
    for _ in range(max_sweeps):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                beta = np.angle(apq)
                theta = 0.5 * np.arctan2(2.0 * abs(apq), (a[p, p] - a[q, q]).real)
                c = np.cos(theta)
                s = np.sin(theta)
                ph = np.exp(1j * beta)
                # Columns: A <- A U with U mixing columns p and q.
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(ph) * col_q
                a[:, q] = -s * ph * col_p + c * col_q
                # Rows: A <- U^dagger A.
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + s * ph * row_q
                a[q, :] = -s * np.conj(ph) * row_p + c * row_q
                if want_vectors:
                    vcol_p = v[:, p].copy()
                    vcol_q = v[:, q].copy()
                    v[:, p] = c * vcol_p + s * np.conj(ph) * vcol_q
                    v[:, q] = -s * ph * vcol_p + c * vcol_q
        converged = _offdiag_norm(a) < conv_tol
    if not converged:
        raise NoConvergence(
            f"off-diagonal norm {_offdiag_norm(a):.3e} > {conv_tol:.1e} "
            f"after {max_sweeps} sweeps"
        )
    w = np.diag(a).real
    order = np.argsort(w, kind="stable")
    w = w[order]
    if want_vectors:
        v = v[:, order]
    return w, v


def conjugation_flow(h, t, rho):
    """Evolve rho by the unitary conjugation exp(-itH) rho exp(+itH).

    H is diagonalized once (Jacobi); the exponential is applied on the
    eigenbasis, so the result is exactly isospectral up to roundoff.
    """
    w, v = jacobi_eigh(h)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


def frobenius_distance(a, b):
    """Frobenius norm of (a - b); raises ShapeMismatch on incompatible shapes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.sum(np.abs(d) ** 2)))
