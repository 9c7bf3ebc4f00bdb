"""Property tests on random Hermitian matrices: the coherence-space sign
masks against the matrix routes, and the batched Jacobi solver against
per-matrix calls and the numpy.linalg oracle.  Also the unextendability
check against a brute-force search on product kets of Pauli eigenstates."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from upb3q.entanglement import partial_transpose
from upb3q.linalg import NoConvergence, NonHermitian, jacobi_eigh
from upb3q.pauli import INDICES, ProductKet, from_coherence, ket_from_string, to_coherence
from upb3q.states import FAMILY_SYMBOLS, check_upb, family, reflect

from helpers import check_upb_reference

entries = arrays(np.float64, (2, 8, 8), elements=st.floats(-1.0, 1.0))


def trace_one_hermitian(parts):
    m = parts[0] + 1j * parts[1]
    h = (m + m.conj().T) / 2
    return h + (1.0 - np.trace(h).real) / 8.0 * np.eye(8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(entries)
def test_sign_masks_match_matrix_routes(parts):
    rho = trace_one_hermitian(parts)
    tens = to_coherence(rho)
    refl = reflect(tens)
    assert np.abs(from_coherence(refl) - (np.eye(8) / 4 - rho)).max() < 1e-12
    assert np.array_equal(reflect(refl), tens)
    for qubit in (1, 2, 3):
        via_mask = from_coherence(np.where(INDICES[:, qubit - 1] == 2, -tens, tens))
        assert np.abs(via_mask - partial_transpose(rho)[qubit - 1]).max() < 1e-12


# Stack members: one of four kinds, built from a (2, 8, 8) block of entries.
KINDS = ("dense", "degenerate", "diagonal", "sparse")
members = st.lists(st.tuples(st.sampled_from(KINDS), entries), min_size=1, max_size=6)


def unitary(parts):
    q, _ = np.linalg.qr(parts[0] + 1j * parts[1])
    return q


def hermitian(kind, parts):
    """A Hermitian 8x8 of the given kind; "degenerate" has spectrum {0 x4, 1/4 x4}."""
    h = trace_one_hermitian(parts)
    if kind == "degenerate":
        u = unitary(parts)
        return u @ np.diag([0.0] * 4 + [0.25] * 4) @ u.conj().T
    if kind == "diagonal":
        return np.diag(parts[0].diagonal()).astype(complex)
    if kind == "sparse":  # exact zeros exercise the solver's skipped pairs
        keep = np.abs(parts[0] + parts[0].T) > 0.5
        return np.where(keep, h, 0.0)
    return h


def scalar_jacobi_eigh(mat, conv_tol=1e-14, max_sweeps=100):
    """Reference: the one-matrix cyclic Jacobi loop the batched solver replaced.

    It works on numpy scalars, one (p, q) rotation at a time; the batched
    solver must reproduce its eigenvalues and eigenvectors bit for bit.  It
    stops, as the solver does, once the off-diagonal norm is below
    conv_tol x max(1, ||A||_F), with ||A||_F the norm of the input.  A real
    input takes the real rotation, from hypot, sqrt and division alone, on
    gap and a_pq over the larger of their sizes.
    """
    real = np.asarray(mat).dtype.kind in "iuf"
    a = np.array(mat, dtype=float if real else complex)
    n = a.shape[0]
    v = np.eye(n, dtype=a.dtype)
    conv_tol *= max(1.0, float(np.sqrt(np.sum(np.abs(a) ** 2))))

    def off_norm(m):
        return float(np.sqrt(np.sum(np.abs(m - np.diag(np.diag(m))) ** 2)))

    for _ in range(max_sweeps):
        if off_norm(a) < conv_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                if real:  # c = cos(theta) and s = sgn(a_pq) sin(theta), from hypot, sqrt and division
                    gap = a[p, p] - a[q, q]
                    size = max(abs(gap), abs(apq))
                    g, h = gap / size, apq / size
                    rho = np.hypot(g, 2.0 * h)
                    big = np.sqrt((1.0 + abs(g / rho)) / 2.0)
                    small = abs(h / rho) / big
                    c, s = (big, small) if gap >= 0.0 else (small, big)
                    s = np.copysign(s, apq)
                    cols = rows = (s, -s)
                else:
                    theta = 0.5 * np.arctan2(2.0 * abs(apq), (a[p, p] - a[q, q]).real)
                    c, s, ph = np.cos(theta), np.sin(theta), np.exp(1j * np.angle(apq))
                    cols, rows = (s * np.conj(ph), -s * ph), (s * ph, -s * np.conj(ph))
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p + cols[0] * col_q
                a[:, q] = cols[1] * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p + rows[0] * row_q
                a[q, :] = rows[1] * row_p + c * row_q
                vcol_p, vcol_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vcol_p + cols[0] * vcol_q
                v[:, q] = cols[1] * vcol_p + c * vcol_q
    assert off_norm(a) < conv_tol
    w = np.diag(a).real
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def real_symmetric(kind, parts):
    """The real symmetric 8x8 of the given kind: hermitian() of the real entries alone, as float64."""
    return hermitian(kind, (parts[0], np.zeros_like(parts[0]))).real


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(members)
def test_stacked_jacobi_equals_per_matrix_calls(stack_members):
    # a complex stack takes the complex rotation, and the real stack of the
    # same draw (its real entries alone, as float64) the real rotation
    for build in (hermitian, real_symmetric):
        stack = np.array([build(kind, parts) for kind, parts in stack_members])
        for want_vectors in (False, True):
            w, v = jacobi_eigh(stack, want_vectors=want_vectors)
            for i, m in enumerate(stack):
                w1, v1 = jacobi_eigh(m, want_vectors=want_vectors)
                assert np.array_equal(w[i], w1)
                assert v1 is None if v is None else np.array_equal(v[i], v1)
        for i, m in enumerate(stack):
            w_ref, v_ref = scalar_jacobi_eigh(m)
            assert np.array_equal(w[i], w_ref) and np.array_equal(v[i], v_ref)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(members, entries)
def test_jacobi_spectrum_is_invariant_under_unitary_conjugation(stack_members, u_parts):
    stack = np.array([hermitian(kind, parts) for kind, parts in stack_members])
    u = unitary(u_parts)
    w, _ = jacobi_eigh(u @ stack @ u.conj().T, want_vectors=False)
    for i, m in enumerate(stack):
        assert np.abs(w[i] - np.linalg.eigvalsh(m)).max() < 1e-11


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(members, st.integers(0, 5), st.integers(0, 7), st.integers(1, 7), st.booleans())
def test_jacobi_stack_fails_as_a_whole(stack_members, pick, row, shift, use_nan):
    stack = np.array([hermitian(kind, parts) for kind, parts in stack_members])
    bad = stack.copy()
    i, col = pick % len(bad), (row + shift) % 8
    bad[i, row, col] = np.nan if use_nan else bad[i, row, col] + 1.0
    with pytest.raises(NonHermitian):
        jacobi_eigh(bad)
    # a stack with one unconverged member runs out of a zero sweep budget
    with pytest.raises(NoConvergence):
        jacobi_eigh(np.concatenate([stack, [trace_one_hermitian(np.ones((2, 8, 8)))]]),
                    max_sweeps=0)


# The six Pauli eigenstates by symbol (r, l: the +1 and -1 states of Y), and
# the eigenstate orthogonal to each.
PAULI_STATES = {
    "0": np.array([1, 0]), "1": np.array([0, 1]),
    "+": np.array([1, 1]) / np.sqrt(2), "-": np.array([1, -1]) / np.sqrt(2),
    "r": np.array([1, 1j]) / np.sqrt(2), "l": np.array([1, -1j]) / np.sqrt(2),
}
OPPOSITE = {"0": "1", "1": "0", "+": "-", "-": "+", "r": "l", "l": "r"}
# A 4-set is drawn party by party.  A party whose four local states are
# pairwise distinct (so pairwise non-parallel) can serve at most one member
# of a witness, so the draws mix such parties with free ones to give both
# verdicts often.
party_states = st.booleans().flatmap(lambda distinct: st.lists(
    st.sampled_from(sorted(PAULI_STATES)), min_size=4, max_size=4, unique=distinct))
product_sets = st.tuples(party_states, party_states, party_states).map(
    lambda parties: ["".join(local) for local in zip(*parties)])


def pauli_ket(symbols):
    return np.kron(np.kron(*(PAULI_STATES[ch] for ch in symbols[:2])), PAULI_STATES[symbols[2]])


def brute_force_extendable(members):
    """A product witness exists iff one of the 4^3 candidates is one.

    Each candidate's local state on each party is orthogonal to some member's
    local state there: a witness must be orthogonal to every member on at
    least one party, and on a party that no member needs, any member's
    opposite state serves as well.
    """
    options = [{OPPOSITE[m[p]] for m in members} for p in range(3)]
    kets = [pauli_ket(m) for m in members]
    return any(
        max(abs(np.vdot(k, pauli_ket(cand))) for k in kets) < 1e-9
        for cand in itertools.product(*options)
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(product_sets)
@example(list(FAMILY_SYMBOLS["psi"]))
@example(list(FAMILY_SYMBOLS["mu"]))
@example(list(FAMILY_SYMBOLS["theta"]))
@example(list(FAMILY_SYMBOLS["phi"]))
@example(list(FAMILY_SYMBOLS["psi"][:3]) + ["111"])
def test_check_upb_matches_brute_force_witness_search(members):
    kets = [ProductKet([PAULI_STATES[ch] for ch in m]) for m in members]
    assert (check_upb(kets).extension_witness is None) == (not brute_force_extendable(members))


def _same_verdict(kets):
    """check_upb and the brute-force reference agree: same orthogonal flag, same witness bytes or both None."""
    res = check_upb(kets)
    orthogonal, witness = check_upb_reference(kets)
    assert res.orthogonal == orthogonal
    if witness is None:
        assert res.extension_witness is None
    else:
        got = res.extension_witness
        assert [v.tobytes() for v in got.locals] == [v.tobytes() for v in witness.locals]
        assert got.amplitudes.tobytes() == witness.amplitudes.tobytes()


@pytest.mark.parametrize("name", [*sorted(FAMILY_SYMBOLS), "weakened"])
def test_check_upb_matches_the_reference_on_the_named_sets(name):
    # check_upb tests each member pair once per party; the reference tests them again in each of the 81 assignments
    _same_verdict(family("psi")[:3] + (ket_from_string("111"),) if name == "weakened" else family(name))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(product_sets)
def test_check_upb_matches_the_reference_on_product_sets(members):
    _same_verdict([ProductKet([PAULI_STATES[ch] for ch in m]) for m in members])
