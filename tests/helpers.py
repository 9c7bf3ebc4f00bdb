"""Partial-transpose oracles shared by the test modules."""

from upb3q.entanglement import partial_transpose
from upb3q.linalg import jacobi_eigh


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
