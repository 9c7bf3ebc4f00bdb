"""One table of array arguments: every public routine that takes an array,
given each kind of bad array, raises a library ValueError whose message names
the rule, before any eigen solve and without a warning."""

import re
import warnings

import numpy as np
import pytest

from upb3q import (
    ORBIT,
    STAGE1,
    UPB_TRIPLES,
    ProductKet,
    bloch_vector,
    coherence_product,
    frobenius_distance,
    from_coherence,
    generator,
    jacobi_eigh,
    lhv_oracle,
    min_pt_eigs,
    partial_reflect,
    partial_transpose,
    reduced_density,
    reflect,
    reflect_density,
    rho_upb,
    rodrigues_flow,
    stationarity,
    to_coherence,
    triple_value,
)
from upb3q.linalg import NonHermitian, ShapeMismatch, eigen_flow
from upb3q.pauli import BadLength
from upb3q.states import spectrum_in_C

RHO = rho_upb()
C = to_coherence(RHO)
H = generator(*STAGE1)
W, V = np.arange(8.0), np.eye(8, dtype=complex)  # the eigensystem of diag(0..7), without a solve
UP = np.array([1.0, 0.0])

# One row per array argument: (the call, a valid value, what the argument must
# hold).  "hermitian" rows reject a NaN or inf entry through the Hermiticity
# residue, as NonHermitian; "finite" rows as not finite; "real" rows are
# finite too, and also reject a nonzero imaginary part.  A complex entry is
# valid in the other rows, so only "real" rows get the complex kind.
ROWS = {
    "jacobi_eigh": (jacobi_eigh, RHO, "hermitian"),
    "eigen_flow(w)": (lambda w: eigen_flow(w, V, 0.3, RHO), W, "real"),
    "eigen_flow(v)": (lambda v: eigen_flow(W, v, 0.3, RHO), V, "finite"),
    "eigen_flow(rho)": (lambda rho: eigen_flow(W, V, 0.3, rho), RHO, "finite"),
    "frobenius_distance(a)": (lambda a: frobenius_distance(a, RHO), RHO, "finite"),
    "frobenius_distance(b)": (lambda b: frobenius_distance(RHO, b), RHO, "finite"),
    "partial_transpose": (partial_transpose, RHO, "finite"),
    "min_pt_eigs": (min_pt_eigs, RHO, "finite"),
    "to_coherence": (to_coherence, RHO, "hermitian"),
    "from_coherence": (from_coherence, C, "real"),
    "reduced_density": (reduced_density, RHO, "hermitian"),
    "bloch_vector": (bloch_vector, np.eye(2) / 2, "hermitian"),
    "stationarity(h)": (lambda h: stationarity(h, RHO), H, "hermitian"),
    "stationarity(rho)": (lambda rho: stationarity(H, rho), RHO, "hermitian"),
    "reflect": (reflect, C, "real"),
    "partial_reflect": (partial_reflect, C, "real"),
    "reflect_density": (reflect_density, RHO, "hermitian"),
    "coherence_product": (coherence_product, C, "real"),
    "triple_value": (lambda c: triple_value(c, UPB_TRIPLES[0]), C, "real"),
    "lhv_oracle": (lambda c: lhv_oracle(c, UPB_TRIPLES[0]), C, "real"),
    "rodrigues_flow": (lambda c: rodrigues_flow(ORBIT, 0.3, c), C, "real"),
    "spectrum_in_C": (spectrum_in_C, np.full(8, 0.125), "real"),
    "ProductKet": (lambda v: ProductKet((UP, UP, v)), UP, "finite"),
}


def _with_first(x, value):
    """A copy of x with its first entry set to value."""
    x = np.array(x, dtype=complex if np.iscomplexobj(x) else float)
    x.flat[0] = value
    return x


# Each bad kind: how it is made from a valid value.
KINDS = {
    "str": lambda x: np.full(np.shape(x), "1"),
    "bool": lambda x: np.asarray(x) != 0,
    "none": lambda x: np.full(np.shape(x), None),
    "nan": lambda x: _with_first(x, np.nan),
    "inf": lambda x: _with_first(x, np.inf),
    "complex": lambda x: x + 1e-3j,
    "shape": lambda x: np.asarray(x)[..., :-1],
}
DTYPES = {"str": "<U1", "bool": "bool", "none": "object"}


def _expected(kind, holds):
    """(exception types, message pattern) of a row that holds holds, given a bad kind."""
    if kind in DTYPES:
        return ValueError, f"must be {'real ' if holds == 'real' else ''}numbers, got dtype {DTYPES[kind]}"
    if kind in ("nan", "inf") and holds == "hermitian":
        return NonHermitian, "Hermiticity residue nan"
    if kind in ("nan", "inf"):
        return ValueError, "must be finite"
    if kind == "complex":
        return ValueError, "must be real"
    return (ShapeMismatch, BadLength), "shape|need 3 local vectors of 2 entries"


CASES = [(name, kind) for name, (_, _, holds) in ROWS.items() for kind in KINDS
         if kind != "complex" or holds == "real"]


@pytest.mark.parametrize("name, kind", CASES, ids=[f"{n}-{k}" for n, k in CASES])
def test_bad_array_raises_a_library_error_before_any_solve(solver_calls, name, kind):
    call, good, holds = ROWS[name]
    error, pattern = _expected(kind, holds)
    bad = KINDS[kind](good)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=pattern):
            call(bad)
    assert solver_calls == []


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_row_accepts_its_valid_array(name):
    call, good, _ = ROWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)


# Five calls that the separate checks of each helper let through:
# partial_transpose("abc") failed with Python's "complex() arg is a malformed
# string", eigen_flow and min_pt_eigs read an array of "1" strings as numbers,
# min_pt_eigs returned [1, 1, 1] for a bool identity, and eigen_flow returned
# a NaN matrix for a NaN rho.
FORMER_FAILURES = {
    "partial_transpose-text": (lambda: partial_transpose("abc"), "must be numbers, got dtype <U3"),
    "eigen_flow-str-rho": (lambda: eigen_flow(W, V, 0.3, np.full((8, 8), "1")),
                           "must be numbers, got dtype <U1"),
    "min_pt_eigs-str": (lambda: min_pt_eigs(np.full((8, 8), "1")), "must be numbers, got dtype <U1"),
    "min_pt_eigs-bool": (lambda: min_pt_eigs(np.eye(8, dtype=bool)), "must be numbers, got dtype bool"),
    "eigen_flow-nan-rho": (lambda: eigen_flow(W, V, 0.3, np.full((8, 8), np.nan)), "must be finite"),
}


@pytest.mark.parametrize("name", sorted(FORMER_FAILURES))
def test_former_failures_are_library_errors(solver_calls, name):
    call, pattern = FORMER_FAILURES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(pattern)):
            call()
    assert solver_calls == []


# Finite arguments whose result overflows.  Each call used to return inf or
# NaN without an error; stationarity's products also warned twice and were
# then reported as non-finite input, eigen_flow's phase t w overflowed to an
# all-NaN flow with two warnings, and bloch_vector and rodrigues_flow warned.
OVERFLOWS = {
    "from_coherence": lambda: from_coherence(np.full(64, 1e308)),
    "from_coherence-stack": lambda: from_coherence(np.stack([C, np.full(64, 1e308)])),
    "to_coherence": lambda: to_coherence(1e308 * np.eye(8)),
    "reduced_density": lambda: reduced_density(np.full((8, 8), 1e308)),
    "triple_value": lambda: triple_value(np.full(64, 1e308), UPB_TRIPLES[0]),
    "stationarity": lambda: stationarity(1e200 * np.eye(8), 1e200 * np.eye(8)),
    "eigen_flow": lambda: eigen_flow(np.full(8, 1e308), np.eye(8), 1e10, np.eye(8)),
    "bloch_vector": lambda: bloch_vector(np.full((2, 2), 1e308)),
    "rodrigues_flow": lambda: rodrigues_flow(ORBIT, 1.0, np.full(64, 1.7e308)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_an_overflowing_result_is_a_library_error_naming_the_overflow(solver_calls, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("got an infinite or NaN value (an overflow)")):
            OVERFLOWS[name]()
    assert solver_calls == []
