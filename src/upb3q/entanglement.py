"""Partial transposes, the minimum partial-transpose eigenvalue of every cut
(the PPT test: a state is PPT iff none is negative), observable-triple sign
tests, and the brute-force local-hidden-sign oracle.

The triple test: three pairwise-commuting basis observables whose matrix
product is a positive multiple of the identity direction force any
deterministic assignment of local signs to multiply to +1 across the triple.
A state whose three expectation signs multiply to -1 therefore admits no such
assignment; the oracle checks this by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .linalg import _check_8x8, _check_tolerance, frobenius_distance, jacobi_eigh
from .pauli import label_to_tuple, lambda_tensor


class Cut(Enum):
    """The three bipartitions of 3 qubits, named by the singleton side."""

    Q1 = "1|23"
    Q2 = "2|13"
    Q3 = "3|12"

    @property
    def qubit(self):
        return int(self.value[0])


def partial_transpose(rho, cut):
    """Transpose the singleton-side qubit of the given cut.

    rho is an 8x8 matrix or a stack of them, (..., 8, 8); any other shape
    raises ShapeMismatch.
    """
    rho = _check_8x8(rho)
    batch = rho.shape[:-2]
    t = rho.reshape(batch + (2,) * 6)
    q = len(batch) + cut.qubit - 1
    axes = list(range(t.ndim))
    axes[q], axes[q + 3] = axes[q + 3], axes[q]
    return t.transpose(axes).reshape(batch + (8, 8))


def min_pt_eigs(rho):
    """Minimum partial-transpose eigenvalue on every cut, ordered as Cut.

    Shape (3,) for one 8x8 matrix and (..., 3) for a stack (..., 8, 8); all
    cuts of all members come from one eigen solve.
    """
    pts = np.stack([partial_transpose(rho, cut) for cut in Cut], axis=-3)
    return jacobi_eigh(pts, want_vectors=False)[0][..., 0]


@dataclass(frozen=True)
class ObservableTriple:
    """Three basis-observable index triples, optionally with expectation signs.

    indices holds three (j,k,l) tuples; expected_signs holds +1/-1 per
    observable once filled from a state (None = unconstrained, used for
    expectations below the sign threshold).
    """

    indices: tuple
    expected_signs: tuple = (None, None, None)

    @classmethod
    def from_labels(cls, *labels):
        return cls(tuple(label_to_tuple(s) for s in labels))

    def matrices(self):
        return [lambda_tensor(*idx) for idx in self.indices]


_UPB_TRIPLES = (("031", "301", "330"), ("013", "303", "310"),
                ("033", "103", "130"), ("011", "101", "110"))
_OQ_TRIPLES = (("031", "101", "130"), ("013", "103", "110"),
               ("011", "301", "310"), ("033", "303", "330"))


def builtin_triples(which):
    """The four observable triples probing rho_upb ("upb") or rho_oq ("oq").

    Each triple's observables pairwise commute and multiply to a positive
    multiple of the identity direction, so a state violating its sign product
    admits no deterministic local-sign assignment.
    """
    table = {"upb": _UPB_TRIPLES, "oq": _OQ_TRIPLES}
    if which not in table:
        raise ValueError(f"which must be 'upb' or 'oq', got {which!r}")
    return [ObservableTriple.from_labels(*labels) for labels in table[which]]


_TRIPLE_TOL = 1e-12  # commutator and identity-residual norms below this count as zero


def verify_triple_structure(triple):
    """Check the algebra that powers the sign argument.

    Returns True iff the three observables pairwise commute (commutator norm
    < _TRIPLE_TOL) and their product is c * Lambda_000 with c > 0.
    """
    a, b, c = triple.matrices()
    for m1, m2 in itertools.combinations((a, b, c), 2):
        if frobenius_distance(m1 @ m2, m2 @ m1) >= _TRIPLE_TOL:
            return False
    prod = a @ b @ c
    ident = lambda_tensor(0, 0, 0)
    coeff = np.trace(prod @ ident).real  # orthonormal-basis projection
    residual = frobenius_distance(prod, coeff * ident)
    return bool(residual < _TRIPLE_TOL and coeff > 0)


def triple_value(tensor, triple):
    """Product of the three coherence components addressed by the triple."""
    out = 1.0
    for j, k, l in triple.indices:
        out *= tensor.component((j, k, l))
    return float(out)


def signed_triple(tensor, triple, sign_tol=1e-8):
    """Fill a triple's expected signs from a state's coherence components.

    Components with |value| <= sign_tol get sign None (unconstrained).
    Raises ValueError on a negative or non-finite sign_tol.
    """
    _check_tolerance("sign_tol", sign_tol)
    signs = []
    for idx in triple.indices:
        val = tensor.component(idx)
        signs.append(None if abs(val) <= sign_tol else (1 if val > 0 else -1))
    return replace(triple, expected_signs=tuple(signs))


def lhv_oracle(triples):
    """Count deterministic local-sign assignments consistent with the triples.

    Variables are the (qubit, axis) pairs with axis != 0 occurring anywhere in
    the supplied triples' indices.  An assignment maps each variable to +/-1;
    it is consistent iff for every observable with a filled sign, the product
    of its variables' values equals that sign.  Observables with sign None
    impose no constraint.  Returns the number of consistent assignments out of
    2^V (so a list with no filled signs counts all 2^V).

    The sign products are checked per observable, so passing a single triple
    realizes the commuting-context argument; passing several triples asks for
    one assignment consistent with all of them jointly.
    """
    variables = sorted(
        {
            (q, idx[q])
            for triple in triples
            for idx in triple.indices
            for q in range(3)
            if idx[q] != 0
        }
    )
    constraints = []
    for triple in triples:
        for idx, sign in zip(triple.indices, triple.expected_signs):
            if sign is None:
                continue
            vars_of_obs = [(q, idx[q]) for q in range(3) if idx[q] != 0]
            constraints.append((vars_of_obs, sign))
    count = 0
    for bits in itertools.product((1, -1), repeat=len(variables)):
        assign = dict(zip(variables, bits))
        if all(
            int(np.prod([assign[v] for v in vars_of_obs])) == sign
            for vars_of_obs, sign in constraints
        ):
            count += 1
    return count
