"""Named states and bases: the UPB complement state, its separable partner,
reflection maps, the bounded-spectrum set C, and the unextendability check.

The central pair is
    rho_sep = (1/4) sum_j |psi_j><psi_j|       (separable)
    rho_upb = (I - sum_j |psi_j><psi_j|) / 4   (bound entangled complement)
with psi = {01+, 1+0, +01, ---} an unextendable product basis (UPB): no
product state is orthogonal to all four members.  In coherence components the
two states share one magnitude x = 1/(8 sqrt 2) on 16 homogeneous slots and
are exchanged by the reflection that negates every homogeneous component.
"""

import itertools
from typing import NamedTuple

import numpy as np

from .linalg import _array, _items
from .pauli import (
    INDICES,
    SQRT2,
    ProductKet,
    from_coherence,
    ket_from_string,
    label_index,
    to_coherence,
)

# Common magnitude of the nonzero homogeneous coherence components.
X = 1.0 / (8.0 * SQRT2)

FAMILY_SYMBOLS = {
    "psi": ("01+", "1+0", "+01", "---"),
    "mu": ("01-", "1-0", "-01", "+++"),
    "theta": ("+1-", "-+1", "1-+", "000"),
    "phi": ("10-", "0-1", "-10", "+++"),
}

# Coherence-component tables (labels of +x / -x slots; all other homogeneous
# components vanish).  rho_upb carries the first pair; the quarter-period
# orbit state rho_oq carries the second.
UPB_PLUS = ("031", "033", "103", "111", "133", "303", "310", "313", "330", "331")
UPB_MINUS = ("011", "013", "101", "110", "130", "301")
OQ_PLUS = ("011", "013", "101", "110", "130", "301")
OQ_MINUS = ("031", "033", "103", "113", "131", "303", "310", "311", "330", "333")


class NotOrthogonal(ValueError):
    """Kets supplied to complement_map are not pairwise orthogonal."""


class WrongCount(ValueError):
    """complement_map and check_upb require exactly 4 kets."""


def _four_kets(kets):
    """kets as a tuple; WrongCount unless there are exactly 4, ValueError unless each is a ProductKet."""
    kets = _items(kets, 4, "need exactly 4 kets", WrongCount)
    for i, k in enumerate(kets):
        if not isinstance(k, ProductKet):
            raise ValueError(f"ket {i} must be a ProductKet, got {k!r}")
    return kets


_FAMILIES = {}  # name -> its 4 kets, built on first use; a ket's arrays are read-only, so callers share them


def family(name):
    """The 4 mutually orthogonal product kets of a named family (psi, mu, theta, phi); one tuple for every call."""
    if not isinstance(name, str) or name not in FAMILY_SYMBOLS:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILY_SYMBOLS)}")
    if name not in _FAMILIES:
        _FAMILIES[name] = tuple(ket_from_string(s) for s in FAMILY_SYMBOLS[name])
    return _FAMILIES[name]


def family_mixture(name):
    """Equal-weight mixture of a named family's projectors."""
    return sum(k.projector() for k in family(name)) / 4.0


def rho_sep():
    """The separable partner: equal-weight mixture of the psi projectors."""
    return family_mixture("psi")


def rho_upb():
    """The bound entangled complement of the psi basis, (I - sum proj)/4."""
    return complement_map(family("psi"))


def rho_oq():
    """The quarter-period orbit state: complement of the theta basis."""
    return complement_map(family("theta"))


def _table_tensor(plus, minus):
    c = np.zeros(64)
    c[0] = 1.0 / (2.0 * SQRT2)
    for labels, value in ((plus, X), (minus, -X)):
        c[[label_index(s) for s in labels]] = value
    return c


def expected_upb_tensor():
    """The tabulated coherence components of rho_upb (independent of the kets)."""
    return _table_tensor(UPB_PLUS, UPB_MINUS)


def expected_oq_tensor():
    """The tabulated coherence components of rho_oq."""
    return _table_tensor(OQ_PLUS, OQ_MINUS)


def reflect(c):
    """Negate every homogeneous component (all but (0,0,0)) of (..., 64) vectors; an involution.

    On trace-1 states this is rho -> I/4 - rho; it exchanges rho_sep and
    rho_upb and maps the set C = {0 <= eig <= 1/4} onto itself.
    """
    c = _array(c, "coherence components", (..., 64), real=True)
    return np.where(INDICES.any(axis=1), -c, c)


def partial_reflect(c):
    """Negate every component whose index sub-tuple on a qubit pair is not (0,0), for each pair.

    Returns shape (3, 64): one row for each pair (1, 2), (1, 3) and (2, 3), in
    that order.  Raises ShapeMismatch unless c has shape (64,).
    """
    c = _array(c, "coherence components", (64,), real=True)
    return np.stack([np.where(INDICES[:, pair].any(axis=1), -c, c) for pair in ([0, 1], [0, 2], [1, 2])])


_C_TOL = 1e-10  # eigenvalues within this of [0, 1/4] count as inside the set C


def spectrum_in_C(w):
    """True iff every spectrum in w lies in [-_C_TOL, 1/4 + _C_TOL] (the reflection-stable set C).

    w holds ascending spectra of 8x8 matrices, shape (8,) or (..., 8); the
    answer is one bool either way.  Raises ShapeMismatch on any other shape,
    and ValueError on spectra that are not real and finite numbers; a complex
    dtype is rejected even with a zero imaginary part.
    """
    if np.iscomplexobj(w):
        raise ValueError(f"spectra must be real numbers, got dtype {np.asarray(w).dtype}")
    w = _array(w, "spectra", (..., 8), real=True)
    return bool(((w[..., 0] >= -_C_TOL) & (w[..., -1] <= 0.25 + _C_TOL)).all())


def complement_map(kets):
    """Normalized projector complement (I - sum_j |k_j><k_j|)/4 of 4 orthogonal kets.

    Raises:
        WrongCount: unless exactly 4 kets are given.
        ValueError: naming the first member that is not a ProductKet.
        NotOrthogonal: if any pairwise overlap exceeds 1e-12.
    """
    kets = _four_kets(kets)
    for (i, a), (j, b) in itertools.combinations(enumerate(kets), 2):
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
        if overlap > 1e-12:
            raise NotOrthogonal(f"overlap {overlap:.3e} between kets {i} and {j}")
    q = sum(k.projector() for k in kets)
    return (np.eye(8, dtype=complex) - q) / 4.0


class UPBCheckResult(NamedTuple):
    """Outcome of the product-basis extension search.

    extension_witness is a verified product ket orthogonal to all 4 members
    when one exists, else None: the set is then unextendable.
    """

    orthogonal: bool
    extension_witness: ProductKet | None


_PARALLEL_TOL = 1e-10  # local qubit vectors with |<v|w>| > 1 - this are parallel


def _orthogonal_complement(v):
    """The unique (up to phase) qubit vector orthogonal to v."""
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def check_upb(kets):
    """Decide whether 4 orthogonal product kets form an unextendable product basis.

    A product witness orthogonal to all members must be orthogonal to each
    member's local vector on at least one party.  Of the 3^4 = 81
    assignments of members to parties, one is feasible iff, on every party,
    the local vectors of the members sent there are parallel to the first
    one's (a qubit direction can be orthogonal to only one ray).  A feasible
    assignment yields a witness: the orthogonal complement of the first
    member's direction on each constrained party, |0> on unconstrained
    parties.  The search sends members in order, trying parties in order,
    and drops every assignment that extends an infeasible start; each
    party's parallel test is made once per member pair.  So the first
    feasible assignment in lexicographic order is returned, verified.

    Returns:
        UPBCheckResult; extension_witness is None iff no assignment is feasible.

    Raises:
        WrongCount: unless exactly 4 kets are given.
        ValueError: naming the first member that is not a ProductKet.
    """
    kets = _four_kets(kets)
    orthogonal = all(
        abs(np.vdot(a.amplitudes, b.amplitudes)) <= 1e-12
        for a, b in itertools.combinations(kets, 2)
    )
    # parallel[p][i, j] for members i < j: their local vectors on party p are parallel
    parallel = [{(i, j): abs(np.vdot(kets[i].locals[p], kets[j].locals[p])) > 1.0 - _PARALLEL_TOL
                 for i, j in itertools.combinations(range(len(kets)), 2)} for p in range(3)]
    sent = [[], [], []]  # the members sent to each party so far

    def send(m):
        """True once members m onwards are sent feasibly, in the first such order; sent is then the assignment."""
        if m == len(kets):
            return True
        for p, ms in enumerate(sent):
            if not ms or parallel[p][ms[0], m]:
                ms.append(m)
                if send(m + 1):
                    return True
                ms.pop()
        return False

    if not send(0):
        return UPBCheckResult(orthogonal, None)
    locals_ = [_orthogonal_complement(kets[ms[0]].locals[p]) if ms else np.array([1.0, 0.0], dtype=complex)
               for p, ms in enumerate(sent)]
    witness = ProductKet(locals_)
    overlaps = [abs(np.vdot(k.amplitudes, witness.amplitudes)) for k in kets]
    if max(overlaps) >= 1e-10:  # pragma: no cover - guards the search logic
        raise AssertionError(f"witness failed verification: overlaps {overlaps}")
    return UPBCheckResult(orthogonal, witness)


def reflect_density(rho):
    """Matrix-level reflection of a trace-1 state: to/from coherence round trip."""
    return from_coherence(reflect(to_coherence(rho)))
