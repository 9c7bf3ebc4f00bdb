"""Oracles shared by the test modules: partial-transpose minima and a brute-force unextendability search."""

import itertools

import numpy as np

from upb3q.entanglement import partial_transpose
from upb3q.linalg import jacobi_eigh
from upb3q.pauli import ProductKet


def min_pt_eigs(rho):
    """Minimum partial-transpose eigenvalue on the cuts 1|23, 2|13 and 3|12, in that order.

    Shape (3,) for one 8x8 matrix and (..., 3) for a stack (..., 8, 8); all
    cuts of all members come from one eigen solve.
    """
    return jacobi_eigh(partial_transpose(rho), want_vectors=False)[0][..., 0]


def min_pt_eig_alone(m, qubit):
    """One-matrix oracle: the smallest eigenvalue of one qubit's partial transpose.

    partial_transpose keeps m's dtype kind, so a real m takes the real
    rotation and a complex one, like a preparation probe, the complex one.
    """
    return jacobi_eigh(partial_transpose(m)[qubit - 1], want_vectors=False)[0][0]


def check_upb_reference(kets):
    """Brute-force check_upb: (orthogonal, witness or None), testing every member pair again in each assignment.

    Each of the 81 assignments of the 4 members to the 3 parties is feasible
    iff, on every party, the members sent there have local vectors parallel
    to the first one's, tested with its own np.vdot; the first feasible one in
    lexicographic order gives the witness, the orthogonal complement of that
    first member's local vector on each used party and |0> on the others.
    """
    orthogonal = all(abs(np.vdot(a.amplitudes, b.amplitudes)) <= 1e-12 for a, b in itertools.combinations(kets, 2))
    for assignment in itertools.product(range(3), repeat=4):
        per_party = [[kets[m].locals[p] for m in range(4) if assignment[m] == p] for p in range(3)]
        if all(all(abs(np.vdot(vs[0], w)) > 1.0 - 1e-10 for w in vs[1:]) for vs in per_party if vs):
            return orthogonal, ProductKet([np.array([-np.conj(vs[0][1]), np.conj(vs[0][0])], dtype=complex)
                                           if vs else np.array([1.0, 0.0], dtype=complex) for vs in per_party])
    return orthogonal, None
