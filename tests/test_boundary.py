"""Two tables of bad arguments, one for arrays and one for numbers, labels and
collections: every public routine, given each kind of bad argument, raises a
library ValueError whose message names the rule, before any eigen solve and
without a warning.  A pin holds every parameter of every export to a row."""

import inspect
import re
import warnings

import numpy as np
import pytest

import upb3q
from upb3q import (
    ORBIT,
    STAGE1,
    STAGE2,
    UPB_TRIPLES,
    ClaimReport,
    ProductKet,
    bloch_vector,
    check_upb,
    complement_map,
    family,
    family_mixture,
    coherence_product,
    frobenius_distance,
    from_coherence,
    generator,
    jacobi_eigh,
    ket_from_string,
    label_index,
    lambda_matrix,
    lhv_oracle,
    orbit,
    partial_reflect,
    partial_transpose,
    prepare_upb,
    reduced_density,
    reflect,
    reflect_density,
    rho_upb,
    rodrigues_flow,
    run_claims,
    stationarity,
    to_coherence,
    triple_value,
    verify_triple_structure,
)
from upb3q.dynamics import _MAX_SAMPLES, FIXED_POINT, BadAxis, named_flow
from upb3q.linalg import NonHermitian, ShapeMismatch
from upb3q.pauli import BadLength, BadSymbol
from upb3q.states import WrongCount, spectrum_in_C

RHO = rho_upb()
C = to_coherence(RHO)
H = generator(*STAGE1)
UP = np.array([1.0, 0.0])

# One row per array argument: (the call, a valid value, what the argument must
# hold).  "hermitian" rows reject a NaN or inf entry through the Hermiticity
# residue, as NonHermitian; "finite" rows as not finite; "real" rows are
# finite too, and also reject a nonzero imaginary part.  A complex entry is
# valid in the other rows, so only "real" rows get the complex kind.
ROWS = {
    "jacobi_eigh": (jacobi_eigh, RHO, "hermitian"),
    "named_flow(rho)": (lambda rho: named_flow(STAGE1, 0.3, rho), RHO, "finite"),
    "frobenius_distance(a)": (lambda a: frobenius_distance(a, RHO), RHO, "finite"),
    "frobenius_distance(b)": (lambda b: frobenius_distance(RHO, b), RHO, "finite"),
    "partial_transpose": (partial_transpose, RHO, "finite"),
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


# Three calls that the separate checks of each helper let through:
# partial_transpose("abc") failed with Python's "complex() arg is a malformed
# string", the conjugation flow (now named_flow) read an array of "1" strings
# as numbers, and the flow returned a NaN matrix for a NaN rho.
FORMER_FAILURES = {
    "partial_transpose-text": (lambda: partial_transpose("abc"), "must be numbers, got dtype <U3"),
    "named_flow-str-rho": (lambda: named_flow(STAGE1, 0.3, np.full((8, 8), "1")),
                           "must be numbers, got dtype <U1"),
    "named_flow-nan-rho": (lambda: named_flow(STAGE1, 0.3, np.full((8, 8), np.nan)), "must be finite"),
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
# then reported as non-finite input, the conjugation flow's phase overflowed to
# an all-NaN flow with two warnings, and bloch_vector and rodrigues_flow warned.
# named_flow's phase t l / (2 sqrt2) overflows on STAGE2's eigenvalue 4.
OVERFLOWS = {
    "from_coherence": lambda: from_coherence(np.full(64, 1e308)),
    "from_coherence-stack": lambda: from_coherence(np.stack([C, np.full(64, 1e308)])),
    "to_coherence": lambda: to_coherence(1e308 * np.eye(8)),
    "reduced_density": lambda: reduced_density(np.full((8, 8), 1e308)),
    "triple_value": lambda: triple_value(np.full(64, 1e308), UPB_TRIPLES[0]),
    "stationarity": lambda: stationarity(1e200 * np.eye(8), 1e200 * np.eye(8)),
    "named_flow": lambda: named_flow(STAGE2, 1.7e308, np.eye(8)),
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


# One row per number, label or collection argument of a public routine:
# (the call on that argument, a valid value, its rules).  A rule is (the
# error, its message, the rule's own bad values); in a message {got} stands
# for repr(bad) and {len} for len(bad).  Every kind of SCALARS is given to the
# first rule of each row as well.  These five calls raised a bare TypeError
# before every collection went through one check, linalg._items:
# ProductKet(np.array(0.3)), check_upb(np.array(0.3)), complement_map(np.array(5)),
# verify_triple_structure(np.array("031")) and lhv_oracle(c, np.array(0.3));
# and rodrigues_flow(ORBIT, 10**400, c) raised a bare OverflowError.
KETS = family("psi")
TRIPLE = UPB_TRIPLES[0]
TIME = (ValueError, "flow time must be a finite real number, got {got}", "0.3", 10**400)  # a 1-D grid is a time too
# a grid is counted before its entries are read; prepare_upb's largest grid holds _MAX_SAMPLES + 1 times
GRID = (ValueError, f"a flow time grid must hold at most {_MAX_SAMPLES + 1} times, got {{len}}",
        np.zeros(_MAX_SAMPLES + 2), [float("nan")] * 30_000)
LABEL = (ValueError, "bad component label {got}", "03", "0311", "0a1", b"031", 13)
FAMILY = (ValueError, "unknown family {got}", "psi2", "", b"psi")
FOUR_KETS = [(WrongCount, "need exactly 4 kets, got {got}", 5, 1.5, "abcd", np.array(0.3)),
             (WrongCount, "need exactly 4 kets, got {len}", (), KETS[:3], KETS + KETS[:1])]
THREE_LABELS = [
    (ValueError, "a triple must hold exactly 3 component labels, got {got}", 5, "031", np.array("031"),
     np.array(0.3)),
    (ValueError, "a triple must hold exactly 3 component labels, got {len}", TRIPLE[:2], TRIPLE + ("013",)),
    (ValueError, "bad component label", (31, 301, 330), ("031", 301, "330"), ("031", None, "330"),
     ("031", b"301", "330")),
]
ARGS = {
    "jacobi_eigh(herm_tol)": (lambda tol: jacobi_eigh(RHO, herm_tol=tol), 1e-10, [
        (ValueError, "herm_tol must be a finite real number >= 0, got {got}", -1e-10)]),
    # a conv_tol of 1 or more used to return the unrotated diagonal: 0.09375 for rho_upb's least eigenvalue 0
    "jacobi_eigh(conv_tol)": (lambda tol: jacobi_eigh(RHO, conv_tol=tol), 1e-14, [
        (ValueError, "conv_tol must be a real number in (0, 1), got {got}", -1e-14, 0.0, -0.0, 1.0, 1)]),
    "jacobi_eigh(max_sweeps)": (lambda n: jacobi_eigh(RHO, max_sweeps=n), 100, [
        (ValueError, "max_sweeps must be an integer >= 0, got {got}", 4.0, "4")]),
    "jacobi_eigh(want_vectors)": (lambda flag: jacobi_eigh(RHO, want_vectors=flag), np.False_, [
        (ValueError, "want_vectors must be True or False, got {got}", "no", 0, 1.0)]),
    "named_flow(t)": (lambda t: named_flow(STAGE1, t, RHO), 0.3, [TIME, GRID]),
    "named_flow(labels)": (lambda labels: named_flow(labels, 0.3, RHO), STAGE2, [
        (BadAxis, f"axis must be STAGE1 {STAGE1} or STAGE2 {STAGE2} or ORBIT {ORBIT}, got {{got}}", "222", ["222"],
         ("22",), FIXED_POINT, (np.array("222"),))]),
    "rodrigues_flow(t)": (lambda t: rodrigues_flow(ORBIT, t, C), 0.3, [TIME, GRID]),
    "rodrigues_flow(axis)": (lambda axis: rodrigues_flow(axis, 0.3, C), STAGE1, [
        (BadAxis, "axis must be STAGE1 ('333',) or ORBIT ('222',), got {got}", "222", ["222"], ("22",), STAGE2,
         (np.array("222"),))]),
    "orbit(samples)": (orbit, np.int64(2), [
        (ValueError, f"samples must be an integer in [2, {_MAX_SAMPLES}], got {{got}}", 1, 0, 4.0, "4",
         _MAX_SAMPLES + 1)]),
    # as in _check_axis, only a tuple is read as several orders: a list is one bad order
    "prepare_upb(order)": (lambda order: prepare_upb(order, 1), "swapped", [
        (ValueError, "order must be 'standard' or 'swapped', got {got}", "sideways", np.array(["standard"]),
         ["standard"]),
        (ValueError, "order must be a tuple of one or both of 'standard' and 'swapped', got {got}", (),
         ("standard", "sideways"), ("swapped", "swapped"), ("standard", ["swapped"]))]),
    "prepare_upb(interior_samples)": (lambda n: prepare_upb("standard", n), np.int64(1), [
        (ValueError, f"interior_samples must be an integer in [0, {_MAX_SAMPLES}], got {{got}}", 4.0, "4",
         _MAX_SAMPLES + 1)]),
    "run_claims(orbit_samples)": (lambda n: run_claims(n, "upb.*"), 2, [
        (ValueError, f"orbit_samples must be an integer in [2, {_MAX_SAMPLES}], got {{got}}", 0, 1,
         _MAX_SAMPLES + 1)]),
    "run_claims(filter)": (lambda pattern: run_claims(2, pattern), "upb.*", [
        (ValueError, "filter must be None or a glob string, got {got}", 3, ["upb.*"], b"upb.*"),
        (ValueError, "no claim id matches {got}", "", "nomatch.*")]),
    "lambda_matrix(mu)": (lambda_matrix, np.int64(2), [
        (ValueError, "Pauli index must be an integer in [0, 3], got {got}", 4, 1.0, "1")]),
    "label_index(label)": (label_index, "031", [LABEL]),
    "generator(labels)": (generator, "031", [LABEL]),
    "ket_from_string(s)": (ket_from_string, "01+", [
        (BadSymbol, "a ket must be a string over {0,1,+,-}, got {got}", b"01+", 13),
        (BadLength, "ket string must have length 3, got {got}", "01", "01+-", ""),
        (BadSymbol, "unknown ket symbol", "0x1", "012")]),
    "family(name)": (family, "psi", [FAMILY]),
    "family_mixture(name)": (family_mixture, "theta", [FAMILY]),
    "ProductKet(locals)": (ProductKet, (UP, UP, UP), [
        (BadLength, "need 3 local vectors of 2 entries, got {got}", 5, 1.5, "abc", np.array(0.3)),
        (BadLength, "need 3 local vectors of 2 entries, got {len}", (), (UP, UP), (UP,) * 4)]),
    "check_upb(kets)": (check_upb, KETS, FOUR_KETS),
    "complement_map(kets)": (complement_map, KETS, FOUR_KETS),
    "verify_triple_structure(triple)": (verify_triple_structure, TRIPLE, THREE_LABELS),
    "triple_value(triple)": (lambda triple: triple_value(C, triple), TRIPLE, THREE_LABELS),
    "lhv_oracle(triple)": (lambda triple: lhv_oracle(C, triple), TRIPLE, THREE_LABELS),
}

# Each bad kind of number, given to the first rule of every row.
SCALARS = {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "negative": -1, "huge": 1e300,
           "true": True, "false": False, "float": 2.5, "complex": 1 + 2j, "none": None, "0-d": np.array(5)}

# The kinds that a row rightly accepts, each with the reason: the call gives
# a finite result without a warning.
ANY_TIME = "a flow is defined at every finite real time, a negative one running it backwards"
ACCEPTED = {
    **{(row, kind): ANY_TIME for row in ("named_flow(t)", "rodrigues_flow(t)")
       for kind in ("negative", "huge", "float")},
    **{("jacobi_eigh(herm_tol)", kind): "a looser tolerance only widens what counts as Hermitian, and the "
       "matrix here is Hermitian, so its spectrum is right" for kind in ("huge", "float")},
    ("jacobi_eigh(want_vectors)", "true"): "a flag: True or False is its whole rule",
    ("jacobi_eigh(want_vectors)", "false"): "a flag: True or False is its whole rule",
    ("run_claims(filter)", "none"): "None is the default: no claim is filtered out",
}


def _bad_cases():
    """(case id, row, rule index, bad value) for every bad value of every rule of every row."""
    for row, (_, _, rules) in ARGS.items():
        yield from ((f"{row}-{kind}", row, 0, bad) for kind, bad in SCALARS.items() if (row, kind) not in ACCEPTED)
        for i, (_, message, *bads) in enumerate(rules):
            yield from ((f"{row}-{len(bad) if '{len}' in message else repr(bad)[:30]}", row, i, bad)
                        for bad in bads)


BAD_CASES = list(_bad_cases())


@pytest.mark.parametrize("row, rule, bad", [case[1:] for case in BAD_CASES], ids=[case[0] for case in BAD_CASES])
def test_bad_number_label_or_collection_raises_a_library_error_before_any_solve(solver_calls, row, rule, bad):
    call, _, rules = ARGS[row]
    error, message = rules[rule][:2]
    message = message.replace("{got}", repr(bad))
    if "{len}" in message:
        message = message.replace("{len}", str(len(bad)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(message)):
            call(bad)
    assert solver_calls == []


def _finite(out):
    """True unless out, or an array among the fields of a tuple out, holds a NaN or infinite entry."""
    return all(np.isfinite(x).all() for x in (out if isinstance(out, tuple) else (out,)) if isinstance(x, np.ndarray))


@pytest.mark.parametrize("row, kind", sorted(ACCEPTED), ids=[f"{r}-{k}" for r, k in sorted(ACCEPTED)])
def test_a_rightly_accepted_kind_gives_a_finite_result(row, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite(ARGS[row][0](SCALARS[kind]))


@pytest.mark.parametrize("row", sorted(ARGS))
def test_each_row_accepts_its_valid_value(row):
    call, good, _ = ARGS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite(call(good))


# Parameters that neither table holds, each with the reason.
EXEMPT = {
    **{f"ClaimReport({field})": "a plain record of one graded claim: run_claims fills it, and it checks nothing"
       for field in ClaimReport._fields},
    "write_orbit_csv(fobj)": "an open text file: a failed write raises its own OSError, which the CLI exits 1 on",
    "write_bloch_csv(fobj)": "an open text file: a failed write raises its own OSError, which the CLI exits 1 on",
    "write_orbit_csv(orbit)": "an Orbit as orbit() returns it: its arrays were checked as they were built",
}


def test_every_parameter_of_every_export_is_a_row_or_exempt():
    # an array row holds the parameter that its call is named after
    arrays = {f"{name.split('(')[0]}({next(iter(inspect.signature(call).parameters))})"
              for name, (call, _, _) in ROWS.items()}
    params = {f"{name}({param})" for name, obj in vars(upb3q).items()
              if callable(obj) and not name.startswith("_") for param in inspect.signature(obj).parameters}
    assert len(params) == 50  # adding or deleting a parameter of an export updates this count
    assert sorted(params - arrays - set(ARGS) - set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - params) == []
