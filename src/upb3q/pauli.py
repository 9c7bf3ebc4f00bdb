"""Normalized Pauli tensor basis and coherence-vector transforms for 3 qubits.

The single-qubit basis is lambda_mu = sigma_mu / sqrt(2), which makes the 64
three-qubit operators Lambda_{jkl} = lambda_j x lambda_k x lambda_l
trace-orthonormal: tr(Lambda_a Lambda_b) = delta_ab.  A density matrix is then
rho = sum_a c_a Lambda_a with real components c_a = tr(rho Lambda_a), the
"tensor of coherences", a plain float array of shape (64,).  Flat index
convention: a = 16j + 4k + l, qubit 1 is the leftmost Kronecker factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeMismatch, _check_matrix

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
    """Ket string does not have exactly 3 symbols."""


class BadSubset(ValueError):
    """Qubit subset is not a nonempty strict subset of {1, 2, 3}."""


class BadAncilla(ValueError):
    """Ancilla coherence vector does not describe a trace-1 qubit."""


def lambda_matrix(mu):
    """Return the normalized single-qubit basis matrix lambda_mu = sigma_mu/sqrt(2).

    The four matrices are trace-orthonormal: tr(lambda_a lambda_b) = delta_ab.
    """
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be in {{0,1,2,3}}, got {mu!r}")
    return SIGMA[mu] / SQRT2


def lambda_tensor(j, k, l):
    """Return Lambda_{jkl} = lambda_j x lambda_k x lambda_l (8x8, trace-orthonormal)."""
    return np.kron(np.kron(lambda_matrix(j), lambda_matrix(k)), lambda_matrix(l))


def flat_index(j, k, l):
    """Flat index of component (j,k,l): 16j + 4k + l."""
    return 16 * j + 4 * k + l


def index_tuple(a):
    """Inverse of flat_index."""
    return a // 16, (a // 4) % 4, a % 4


def label_to_tuple(label):
    """Parse a 3-character component label like '031' into (0, 3, 1)."""
    if not isinstance(label, str) or len(label) != 3 or any(ch not in "0123" for ch in label):
        raise ValueError(f"bad component label {label!r}")
    return int(label[0]), int(label[1]), int(label[2])


# INDICES[a] = (j, k, l) of flat index a, and the full 64-element tensor
# basis, flat-indexed; both built once at import.
INDICES = np.array([index_tuple(a) for a in range(64)])
LAMBDA_BASIS = np.stack([lambda_tensor(*idx) for idx in INDICES])


def _check_coherence(c):
    """c as a float array; ShapeMismatch unless shape (64,), ValueError unless real and finite."""
    c = np.asarray(c)
    if c.shape != (64,):
        raise ShapeMismatch(f"expected a coherence vector of shape (64,), got shape {c.shape}")
    if c.dtype.kind == "c":
        if c.imag.any():
            raise ValueError("coherence components must be real, got a nonzero imaginary part")
        c = c.real
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("coherence components must be finite, got NaN or inf")
    return c


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
    """
    return np.einsum("aij,ji->a", LAMBDA_BASIS, _check_matrix(rho, 8)).real.copy()


def from_coherence(c):
    """Reconstruct the 8x8 matrix sum_a c_a Lambda_a from a (64,) coherence vector."""
    return np.einsum("a,aij->ij", _check_coherence(c), LAMBDA_BASIS)


_KET_SYMBOLS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / SQRT2,
    "-": np.array([1.0, -1.0], dtype=complex) / SQRT2,
}


@dataclass(frozen=True)
class ProductKet:
    """A 3-qubit product state: unit-norm amplitudes, the Kronecker product of its locals."""

    amplitudes: np.ndarray
    locals: tuple

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        locs = tuple(np.asarray(v, dtype=complex) for v in self.locals)
        for v in locs:
            v.setflags(write=False)
        object.__setattr__(self, "locals", locs)

    def projector(self):
        """The rank-1 density matrix |ket><ket|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def product_ket_from_locals(locals_):
    """Build a ProductKet from three single-qubit vectors (normalizing each)."""
    if len(locals_) != 3:
        raise BadLength(f"need 3 local vectors, got {len(locals_)}")
    normed = []
    for v in locals_:
        v = np.asarray(v, dtype=complex)
        n = np.sqrt(np.real(np.vdot(v, v)))
        if not np.isfinite(n):  # NaN or infinite entries, or an overflowing norm
            raise ValueError(f"local vector {v} has no finite norm")
        if n == 0:
            raise ValueError("zero local vector")
        normed.append(v / n)
    amps = np.kron(np.kron(normed[0], normed[1]), normed[2])
    return ProductKet(amps, tuple(normed))


def ket_from_string(s):
    """Build the product ket named by a 3-symbol string over {0,1,+,-}.

    Qubit 1 is the leftmost symbol (most significant Kronecker factor), e.g.
    "01+" -> (e_010 + e_011)/sqrt(2).

    Raises:
        BadLength: if the string is not exactly 3 characters.
        BadSymbol: on any character outside the alphabet.
    """
    if len(s) != 3:
        raise BadLength(f"ket string must have length 3, got {s!r}")
    for ch in s:
        if ch not in _KET_SYMBOLS:
            raise BadSymbol(f"unknown ket symbol {ch!r} in {s!r}")
    locals_ = tuple(_KET_SYMBOLS[ch].copy() for ch in s)
    amps = np.kron(np.kron(locals_[0], locals_[1]), locals_[2])
    return ProductKet(amps, locals_)


def reduced_density(rho, keep):
    """Partial trace keeping the given qubits (1-based), in their original order.

    Args:
        rho: 8x8 density matrix.
        keep: nonempty strict subset of {1, 2, 3}.

    Returns:
        2x2 or 4x4 density matrix of the kept qubits.

    Raises:
        BadSubset: if keep is empty, not a strict subset, or has bad labels.
        ShapeMismatch: unless rho is 8x8.
        NonHermitian: if max|rho - rho^dagger| exceeds 1e-12 or is NaN.
    """
    keep = sorted(set(keep))
    if not keep or len(keep) >= 3 or any(q not in (1, 2, 3) for q in keep):
        raise BadSubset(f"keep must be a nonempty strict subset of {{1,2,3}}, got {keep}")
    t = _check_matrix(rho, 8).reshape(2, 2, 2, 2, 2, 2)
    traced = [q for q in (1, 2, 3) if q not in keep]
    # Row indices 0,1,2 and column indices 3,4,5 of the reshaped tensor.
    letters = "abcdef"
    out_rows = "".join(letters[q - 1] for q in keep)
    out_cols = "".join(letters[q + 2] for q in keep)
    spec = list(letters)
    for q in traced:
        spec[q + 2] = spec[q - 1]
    result = np.einsum("".join(spec) + "->" + out_rows + out_cols, t)
    d = 2 ** len(keep)
    return result.reshape(d, d)


def coherence_product(c, ancilla):
    """Coherence components of (3-qubit state) x (1-qubit ancilla).

    Args:
        c: (64,) coherence vector of the 3-qubit state.
        ancilla: length-4 real coherence vector of the ancilla qubit,
            ancilla[m] = tr(rho_a lambda_m); ancilla[0] must equal 1/sqrt(2)
            and ancilla[1:] must have norm <= 1/sqrt(2).

    Returns:
        Flat (256,) array with component (j,k,l,m) at index 4*(16j+4k+l) + m;
        equals the expansion of the Kronecker-product matrix in the
        Lambda_{jkl} x lambda_m basis.

    Raises:
        ShapeMismatch: unless c has shape (64,).
        BadAncilla: if a component is NaN or infinite, the trace component is
            wrong, or the Bloch part is longer than 1/sqrt(2) (not positive).
    """
    c = _check_coherence(c)
    ancilla = np.asarray(ancilla, dtype=float)
    if ancilla.shape != (4,):
        raise BadAncilla(f"ancilla coherence vector must have 4 components, got {ancilla.shape}")
    if not np.all(np.isfinite(ancilla)):
        raise BadAncilla(f"ancilla components {ancilla} are not all finite")
    if abs(ancilla[0] - 1.0 / SQRT2) > 1e-12:
        raise BadAncilla(f"ancilla trace component {ancilla[0]} != 1/sqrt(2)")
    bloch = np.sqrt(np.sum(ancilla[1:] ** 2))
    if bloch > 1.0 / SQRT2 + 1e-12:
        raise BadAncilla(f"ancilla Bloch part has norm {bloch} > 1/sqrt(2): not a positive state")
    return np.einsum("a,m->am", c, ancilla).reshape(-1)


def bloch_vector(rho_qubit):
    """Bloch vector (tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z)) of a qubit state.

    Raises ShapeMismatch unless rho_qubit is 2x2 and NonHermitian unless it is Hermitian.
    """
    rho_qubit = _check_matrix(rho_qubit, 2)
    return np.array([np.trace(rho_qubit @ SIGMA[i]).real for i in (1, 2, 3)])
