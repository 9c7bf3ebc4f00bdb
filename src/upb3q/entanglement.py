"""Partial transposes (the PPT test: a state is PPT iff no cut's partial
transpose has a negative eigenvalue), the cyclic qubit shift, observable-triple
sign tests on label triples, and the brute-force local-hidden-sign oracle.

The triple test: three pairwise-commuting basis observables whose matrix
product is a positive multiple of the identity direction force any
deterministic assignment of local signs to multiply to +1 across the triple.
A state whose three expectation signs multiply to -1 therefore admits no such
assignment; the oracle checks this by exhaustive enumeration, one commuting
triple at a time.
"""

import itertools
import math

import numpy as np

from .linalg import _array, _distances, _finite_result, _items
from .pauli import LAMBDA_BASIS, label_index


def partial_transpose(rho):
    """Qubit 1, 2 and 3 transposed, in that order: the PPT tests of the cuts 1|23, 2|13 and 3|12.

    rho is an 8x8 matrix or a stack of them, (..., 8, 8), and the result has
    shape (..., 3, 8, 8): float64 for an int or float input and complex128 for
    a complex one, as jacobi_eigh reads dtypes.  Any other shape raises
    ShapeMismatch, and a NaN or infinite entry raises ValueError.
    """
    rho = _array(rho, "matrix entries", (..., 8, 8), real=np.asarray(rho).dtype.kind in "iuf")
    batch = rho.shape[:-2]
    t, q = rho.reshape(batch + (2,) * 6), len(batch)
    pts = [np.swapaxes(t, q + k, q + k + 3) for k in range(3)]  # row and column index of qubit k + 1
    return np.stack(pts, axis=q).reshape(batch + (3, 8, 8))


# The cyclic qubit shift Pi as an index map: Pi rho Pi^T is rho[..., _QUBIT_SHIFT[:, None], _QUBIT_SHIFT],
# the matrix with qubits 1, 2, 3 read in the order 2, 3, 1 (the shift that fixes the Shifts UPB).  Then the
# qubit-1 transpose of Pi rho Pi^T is Pi (qubit-2 transpose of rho) Pi^T, and that of Pi^2 rho Pi^2T is
# Pi^2 (qubit-3 transpose of rho) Pi^2T: a cyclic rho has one partial-transpose spectrum on every cut.
_QUBIT_SHIFT = np.arange(8).reshape(2, 2, 2).transpose(1, 2, 0).reshape(8)


# Label triples probing rho_upb and rho_oq.  Each triple's observables pairwise
# commute and multiply to a positive multiple of the identity direction, so a
# state violating its sign product admits no deterministic local-sign assignment.
UPB_TRIPLES = (("031", "301", "330"), ("013", "303", "310"),
               ("033", "103", "130"), ("011", "101", "110"))
OQ_TRIPLES = (("031", "101", "130"), ("013", "103", "110"),
              ("011", "301", "310"), ("033", "303", "330"))

_TRIPLE_TOL = 1e-12  # commutator and identity-residual norms below this count as zero
_SIGN_TOL = 1e-8  # a component of magnitude at most this imposes no sign constraint


def _triple(triple):
    """The 3 labels of a triple, as a tuple, and their flat indices; ValueError unless it holds 3 labels."""
    labels = _items(triple, 3, "a triple must hold exactly 3 component labels")
    return labels, [label_index(s) for s in labels]


def verify_triple_structure(triple):
    """Check the algebra that powers the sign argument for a label triple, or for each of a tuple of them.

    Returns True iff the three observables pairwise commute (commutator norm
    < _TRIPLE_TOL) and their product is c * Lambda_000 with c > 0.  A tuple
    whose items are all tuples is read as several triples and gives a tuple
    of verdicts, one per triple, from one stacked product of each kind.
    Raises ValueError unless each triple holds exactly 3 valid labels.
    """
    several = isinstance(triple, tuple) and triple != () and all(isinstance(t, tuple) for t in triple)
    m = LAMBDA_BASIS[[_triple(t)[1] for t in (triple if several else (triple,))]]  # (triple, 3, 8, 8)
    x, y = m[:, [0, 0, 1]], m[:, [1, 2, 2]]  # the pairs (a, b), (a, c) and (b, c)
    commute = (_distances(x @ y, y @ x) < _TRIPLE_TOL).all(axis=1)
    prod = m[:, 0] @ m[:, 1] @ m[:, 2]
    ident = LAMBDA_BASIS[0]
    coeff = np.trace(prod @ ident, axis1=-2, axis2=-1).real  # orthonormal-basis projection
    residual = _distances(prod, coeff[:, None, None] * ident)
    verdicts = tuple(map(bool, commute & (residual < _TRIPLE_TOL) & (coeff > 0)))
    return verdicts if several else verdicts[0]


def triple_value(c, triple):
    """Product of the three components of a (64,) coherence vector a label triple addresses.

    Raises ValueError if the product overflows.
    """
    c = _array(c, "coherence components", (64,), real=True)
    return _finite_result(math.prod(float(c[a]) for a in _triple(triple)[1]), "triple value")


def lhv_oracle(c, triple):
    """Count deterministic local-sign assignments consistent with one triple on a state.

    Variables are the (qubit, axis) pairs with axis != '0' in the triple's
    labels; an assignment maps each to +/-1.  Each observable whose component
    in c exceeds _SIGN_TOL in magnitude requires the product of its variables'
    values to equal the component's sign; smaller components impose no
    constraint.  Returns the number of consistent assignments out of 2^V.
    Raises ValueError on a triple of other than 3 labels, and ShapeMismatch
    unless c has shape (64,).
    """
    c = _array(c, "coherence components", (64,), real=True)
    constraints, variables = [], set()
    for label, a in zip(*_triple(triple)):
        vars_of_obs = [(q, axis) for q, axis in enumerate(label) if axis != "0"]
        variables.update(vars_of_obs)
        val = float(c[a])
        if abs(val) > _SIGN_TOL:
            constraints.append((vars_of_obs, 1 if val > 0 else -1))
    variables = sorted(variables)
    count = 0
    for bits in itertools.product((1, -1), repeat=len(variables)):
        assign = dict(zip(variables, bits))
        if all(math.prod(assign[v] for v in vars_of_obs) == sign
               for vars_of_obs, sign in constraints):
            count += 1
    return count
