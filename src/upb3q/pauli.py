"""Normalized Pauli tensor basis and coherence-vector transforms for 3 qubits.

The single-qubit basis is lambda_mu = sigma_mu / sqrt(2), which makes the 64
three-qubit operators Lambda_{jkl} = lambda_j x lambda_k x lambda_l
trace-orthonormal: tr(Lambda_a Lambda_b) = delta_ab.  A density matrix is then
rho = sum_a c_a Lambda_a with real components c_a = tr(rho Lambda_a), the
"tensor of coherences", a plain float array of shape (64,).  Flat index
convention: a = 16j + 4k + l, qubit 1 is the leftmost Kronecker factor.
"""

from typing import NamedTuple

import numpy as np

from .linalg import _array, _finite_result, _items, _number

SQRT2 = np.sqrt(2.0)

# Unnormalized Pauli matrices, indexed 0..3 = identity, x, y, z.
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class BadSymbol(ValueError):
    """Ket string contains a character outside {0, 1, +, -}."""


class BadLength(ValueError):
    """A ket string lacks exactly 3 symbols, or a ProductKet exactly 3 locals of 2 entries."""


def lambda_matrix(mu):
    """Return the normalized single-qubit basis matrix lambda_mu = sigma_mu/sqrt(2).

    The four matrices are trace-orthonormal: tr(lambda_a lambda_b) = delta_ab.
    Raises ValueError unless mu is an integer in 0..3 (a bool is not an index).
    """
    return SIGMA[_number(mu, "Pauli index", integer=True, low=0, high=3)] / SQRT2


def label_index(label):
    """Flat index 16j + 4k + l of a 3-character component label 'jkl' like '031' (13).

    Raises ValueError unless label is a string of three characters from 0123.
    """
    if not isinstance(label, str) or len(label) != 3 or any(ch not in "0123" for ch in label):
        raise ValueError(f"bad component label {label!r}")
    return int(label, 4)


# INDICES[a] = (j, k, l) of flat index a, and the full 64-element tensor
# basis, flat-indexed; both built once at import and read-only.  Broadcasting
# puts lambda_j on axes (0, 3, 6) of one product, lambda_k on (1, 4, 7) and
# lambda_l on (2, 5, 8), so it is indexed (j, k, l, rows, columns); it
# multiplies as np.kron(np.kron(lambda_j, lambda_k), lambda_l) does, bit for bit.
INDICES = np.indices((4, 4, 4)).reshape(3, 64).T.copy()
_LAM = np.stack([lambda_matrix(mu) for mu in range(4)])
LAMBDA_BASIS = (_LAM[:, None, None, :, None, None, :, None, None]
                * _LAM[:, None, None, :, None, None, :, None]
                * _LAM[:, None, None, :, None, None, :]).reshape(64, 8, 8)
INDICES.setflags(write=False)
LAMBDA_BASIS.setflags(write=False)

# Each Lambda_a has one nonzero entry per row, so each of the 64 entries of
# sum_a c_a Lambda_a is a sum of 8 terms.  _HITS[k] holds the k-th of the 8
# strings a that hit each entry, in ascending a, and _HIT_VALUES[k] the value
# Lambda_a has there, both laid out as the float view of a flat complex (64,)
# matrix: re, im, re, im, ...  np.nonzero lists the (entry, a) pairs row-major,
# so a ascends within each entry.
_ENTRY_BY_STRING = LAMBDA_BASIS.reshape(64, 64).T
_ENTRY, _STRING = np.nonzero(_ENTRY_BY_STRING)
_HITS = np.repeat(_STRING.reshape(64, 8).T, 2, axis=1)
_HIT_VALUES = _ENTRY_BY_STRING[_ENTRY, _STRING].reshape(64, 8).T.copy().view(float)
_HITS.setflags(write=False)
_HIT_VALUES.setflags(write=False)
del _ENTRY_BY_STRING, _ENTRY, _STRING

# Vectors gathered at once: their 8 KB of terms each stay in a 256 KB scratch.
_GATHER = 32


def to_coherence(rho):
    """Expand a Hermitian 8x8 matrix in the Lambda basis.

    Args:
        rho: 8x8 complex Hermitian array.

    Returns:
        (64,) float array c with c[a] = tr(rho Lambda_a); for a trace-1 state
        c[0] = 1/(2 sqrt 2) and sum(c**2) = tr(rho^2) <= 1 (equality iff pure).

    Raises:
        ShapeMismatch: unless rho is 8x8.
        NonHermitian: if max|rho - rho^dagger| exceeds 1e-12 or is NaN.
        ValueError: if a component overflows.
    """
    rho = _array(rho, "matrix entries", (8, 8), herm_tol=1e-12)
    return _finite_result(np.einsum("aij,ji->a", LAMBDA_BASIS, rho).real.copy(), "coherence components")


def from_coherence(c):
    """Reconstruct the 8x8 matrix sum_a c_a Lambda_a from a (64,) coherence vector, or a stack of them.

    Each entry sums only the 8 strings that hit it, in ascending flat index
    from +0.0, so every matrix has the bytes of
    np.einsum("...a,aij->...ij", c, LAMBDA_BASIS), signed zeros included:
    the 56 other terms are zeros, which leave such a sum as it is.  A stack
    gives each matrix the bytes of its one-vector call.

    Raises:
        ShapeMismatch: unless c has shape (..., 64).
        ValueError: unless c holds real finite numbers, or if an entry of
            the matrix overflows.
    """
    c = _array(c, "coherence components", (..., 64), real=True)
    rho = np.empty(c.shape[:-1] + (8, 8), dtype=complex)
    vectors, acc = c.reshape(-1, 64), rho.reshape(-1, 64).view(float)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        for start in range(0, len(vectors), _GATHER):
            terms = np.take(vectors[start:start + _GATHER], _HITS, axis=-1)  # (vector, term, 128)
            terms *= _HIT_VALUES
            part = acc[start:start + _GATHER]
            np.add(0.0, terms[:, 0], out=part)
            for k in range(1, 8):
                part += terms[:, k]
    _finite_result(acc, "matrix entries")
    return rho


_KET_SYMBOLS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / SQRT2,
    "-": np.array([1.0, -1.0], dtype=complex) / SQRT2,
}


# A local qubit vector's squared norm may differ from 1 by at most this; the
# named +/- symbols carry 0.9999999999999998.
_UNIT_TOL = 1e-12


class ProductKet(NamedTuple("ProductKet", [("locals", tuple), ("amplitudes", np.ndarray)])):
    """A 3-qubit product state: its three local qubit vectors, and amplitudes, their Kronecker product.

    Raises BadLength unless locals holds exactly 3 vectors of 2 entries each,
    and ValueError on an entry that is not a finite number or a local whose
    squared norm is not 1 within _UNIT_TOL.
    """

    __slots__ = ()
    # _replace goes through _make, which reads only locals: new locals are checked, amplitudes= is refused
    _make = classmethod(lambda cls, fields: cls(next(iter(fields))))

    def __new__(cls, locals):
        locs = tuple(np.asarray(v) for v in _items(locals, 3, "need 3 local vectors of 2 entries", BadLength))
        if any(v.shape != (2,) for v in locs):
            raise BadLength(f"need 3 local vectors of 2 entries, got shapes {[v.shape for v in locs]}")
        locs = tuple(_array(v, "local vector entries").copy() for v in locs)  # the caller's stays writeable
        for v in locs:
            norm2 = float(np.vdot(v, v).real)
            if abs(norm2 - 1.0) > _UNIT_TOL:
                raise ValueError(f"local vector {v} has squared norm {norm2!r}, not 1")
        # np.kron(np.kron(l1, l2), l3) as one broadcast product, with its bits
        amps = (locs[0][:, None, None] * locs[1][:, None] * locs[2]).reshape(8)
        for v in locs + (amps,):
            v.setflags(write=False)
        return super().__new__(cls, locs, amps)

    def __getnewargs__(self):  # copy and pickle rebuild a ket from its locals, as the constructor does
        return (self.locals,)

    def projector(self):
        """The rank-1 density matrix |ket><ket|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def ket_from_string(s):
    """Build the product ket named by a 3-symbol string over {0,1,+,-}.

    Qubit 1 is the leftmost symbol (most significant Kronecker factor), e.g.
    "01+" -> (e_010 + e_011)/sqrt(2).

    Raises:
        BadLength: if the string is not exactly 3 characters.
        BadSymbol: on any character outside the alphabet, or if s is not a string.
    """
    if not isinstance(s, str):
        raise BadSymbol(f"a ket must be a string over {{0,1,+,-}}, got {s!r}")
    if len(s) != 3:
        raise BadLength(f"ket string must have length 3, got {s!r}")
    for ch in s:
        if ch not in _KET_SYMBOLS:
            raise BadSymbol(f"unknown ket symbol {ch!r} in {s!r}")
    return ProductKet(tuple(_KET_SYMBOLS[ch] for ch in s))


def reduced_density(rho):
    """Partial traces of an 8x8 density matrix down to qubit 1, 2 and 3, in that order: shape (3, 2, 2).

    Raises:
        ShapeMismatch: unless rho is 8x8.
        NonHermitian: if max|rho - rho^dagger| exceeds 1e-12 or is NaN.
        ValueError: if a marginal entry overflows.
    """
    t = _array(rho, "matrix entries", (8, 8), herm_tol=1e-12).reshape(2, 2, 2, 2, 2, 2)
    # Row indices 0,1,2 and column indices 3,4,5 of the reshaped tensor; each
    # traced qubit shares its row letter with its column.
    return _finite_result(np.stack([np.einsum(spec, t) for spec in ("abcdbc->ad", "abcaec->be", "abcabf->cf")]),
                          "marginal entries")


# Coherence vector of the maximally mixed ancilla qubit I/2: tr(I/2 lambda_m).
_MIXED_ANCILLA = np.array([1.0 / SQRT2, 0.0, 0.0, 0.0])


def coherence_product(c):
    """Coherence components of (3-qubit state) x (maximally mixed ancilla qubit).

    Args:
        c: (64,) coherence vector of the 3-qubit state.

    Returns:
        Flat (256,) array with component (j,k,l,m) at index 4*(16j+4k+l) + m;
        equals the expansion of the Kronecker-product matrix in the
        Lambda_{jkl} x lambda_m basis.

    Raises:
        ShapeMismatch: unless c has shape (64,).
    """
    c = _array(c, "coherence components", (64,), real=True)
    return np.einsum("a,m->am", c, _MIXED_ANCILLA).reshape(-1)


def bloch_vector(rho_qubit):
    """Bloch vector (tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z)) of a qubit state.

    Raises ShapeMismatch unless rho_qubit is 2x2, NonHermitian unless it is
    Hermitian, and ValueError if a component overflows.
    """
    rho_qubit = _array(rho_qubit, "matrix entries", (2, 2), herm_tol=1e-12)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        vector = np.array([np.trace(rho_qubit @ SIGMA[i]).real for i in (1, 2, 3)])
    return _finite_result(vector, "Bloch components")
