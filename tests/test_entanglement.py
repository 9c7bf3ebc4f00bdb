import re

import numpy as np
import pytest

from upb3q.entanglement import (
    OQ_TRIPLES,
    UPB_TRIPLES,
    Cut,
    lhv_oracle,
    min_pt_eigs,
    partial_transpose,
    triple_value,
    verify_triple_structure,
)
from upb3q.linalg import ShapeMismatch, jacobi_eigh
from upb3q.pauli import (
    INDICES,
    SQRT2,
    flat_index,
    from_coherence,
    ket_from_string,
    label_to_tuple,
    to_coherence,
)
from upb3q.states import X, rho_oq, rho_sep, rho_upb

X3 = X**3


def ghz():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / SQRT2
    return np.outer(v, v.conj())


def ppt(rho):
    """The PPT verdict: no cut's partial transpose has an eigenvalue below -1e-10."""
    return (min_pt_eigs(rho) >= -1e-10).all(-1)


def min_pt_eig_alone(m, cut):
    """One-matrix oracle: the smallest eigenvalue of one cut's partial transpose."""
    return jacobi_eigh(partial_transpose(m, cut), want_vectors=False)[0][0]


def test_cut_enumeration():
    assert [c.qubit for c in Cut] == [1, 2, 3]
    assert Cut.Q2.value == "2|13"


@pytest.mark.parametrize("cut", list(Cut))
def test_partial_transpose_routes_agree(cut):
    rng = np.random.default_rng(7 + cut.qubit)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    via_matrix = partial_transpose(rho, cut)
    # in coherence coordinates the transpose negates the components whose
    # index on that qubit is 2, the only antisymmetric basis direction
    tens = to_coherence(rho)
    via_tensor = from_coherence(np.where(INDICES[:, cut.qubit - 1] == 2, -tens, tens))
    assert np.abs(via_matrix - via_tensor).max() < 1e-13
    # PT is an involution and trace preserving
    assert np.abs(partial_transpose(via_matrix, cut) - rho).max() == 0.0
    assert abs(np.trace(via_matrix).real - 1.0) < 1e-13
    # a leading batch axis transposes each member; min_pt_eigs then solves the
    # whole stack at once, with the bits of one matrix at a time
    stack = np.array([[rho, via_matrix], [ghz(), rho_upb()]])
    pts = partial_transpose(stack, cut)
    mins = min_pt_eigs(stack)[..., cut.qubit - 1]
    assert mins.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        assert np.array_equal(pts[idx], partial_transpose(stack[idx], cut))
        assert mins[idx] == min_pt_eig_alone(stack[idx], cut)


def test_ghz_is_npt_with_minus_half():
    assert np.abs(min_pt_eigs(ghz()) + 0.5).max() < 1e-12
    assert not ppt(ghz())


def test_product_state_is_ppt():
    rho = ket_from_string("0+1").projector()
    assert ppt(rho)


def test_upb_state_is_ppt_everywhere():
    rho = rho_upb()
    assert (min_pt_eigs(rho) > -1e-12).all()
    assert ppt(rho)


def test_stacked_ppt_verdicts_match_per_cut_solves():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dense = m @ m.conj().T
    dense /= np.trace(dense).real
    members = [ghz(), ket_from_string("0+1").projector(), rho_upb(), dense, rho_sep(), rho_oq()]
    stack = np.array(members).reshape(2, 3, 8, 8)
    mins = min_pt_eigs(stack)
    verdicts = (mins >= -1e-10).all(-1)
    assert mins.shape == (2, 3, 3) and verdicts.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        per_cut = np.array([min_pt_eig_alone(stack[idx], cut) for cut in Cut])
        assert np.array_equal(mins[idx], per_cut)
        assert verdicts[idx] == bool((per_cut >= -1e-10).all())
        assert np.array_equal(min_pt_eigs(stack[idx]), mins[idx])
    assert verdicts.tolist() == [[False, True, True], [False, True, True]]


def test_triple_families_structure():
    for triples in (UPB_TRIPLES, OQ_TRIPLES):
        assert len(triples) == 4
        for tr in triples:
            assert verify_triple_structure(tr)


def test_structure_check_rejects_bad_triples():
    non_commuting = ("100", "200", "300")
    assert not verify_triple_structure(non_commuting)
    # pairwise commuting but the matrix product is a *negative* multiple of
    # the identity; the sign argument needs the positive orientation
    negative = ("110", "220", "330")
    assert not verify_triple_structure(negative)
    # product not proportional to the identity at all
    skew = ("033", "303", "300")
    assert not verify_triple_structure(skew)


@pytest.mark.parametrize("bad", [("031", "301"), ("031", "301", "330", "013"), "031"])
def test_triple_routes_require_exactly_three_labels(bad):
    # a 4-label tuple used to run the old joint oracle (count 0) and a 2-label
    # one gave 2, while the structure check failed inside tuple unpacking
    upb_t = to_coherence(rho_upb())
    for route in (verify_triple_structure, lambda tr: triple_value(upb_t, tr),
                  lambda tr: lhv_oracle(upb_t, tr)):
        with pytest.raises(ValueError, match="exactly 3 component labels"):
            route(bad)


@pytest.mark.parametrize("bad", [(31, 301, 330), ("031", 301, "330"), ("031", None, "330"),
                                 ("031", b"301", "330")])
def test_triple_routes_reject_non_string_labels(bad):
    # an integer label used to reach len() and raise a bare TypeError
    upb_t = to_coherence(rho_upb())
    for route in (verify_triple_structure, lambda tr: triple_value(upb_t, tr),
                  lambda tr: lhv_oracle(upb_t, tr)):
        with pytest.raises(ValueError, match="bad component label"):
            route(bad)


def test_triple_values_on_the_three_states():
    upb_t = to_coherence(rho_upb())
    sep_t = to_coherence(rho_sep())
    oq_t = to_coherence(rho_oq())
    for tr in UPB_TRIPLES:
        assert abs(triple_value(upb_t, tr) + X3) < 1e-15
        assert abs(triple_value(sep_t, tr) - X3) < 1e-15
    for tr in OQ_TRIPLES:
        assert abs(triple_value(oq_t, tr) + X3) < 1e-15
        assert abs(triple_value(upb_t, tr) - X3) < 1e-15


def test_oracle_counts_per_triple():
    upb_t = to_coherence(rho_upb())
    sep_t = to_coherence(rho_sep())
    for tr in UPB_TRIPLES:
        assert lhv_oracle(upb_t, tr) == 0
        assert lhv_oracle(sep_t, tr) == 2
    # a huge threshold leaves the triple unconstrained: the count is the full
    # assignment space of its 3 variables
    assert lhv_oracle(upb_t, UPB_TRIPLES[0], sign_tol=1.0) == 8


def test_oracle_sign_thresholds():
    upb_t = to_coherence(rho_upb())
    tr = UPB_TRIPLES[0]  # (031, 301, 330): signs (+, -, +) on rho_upb
    assert [np.sign(upb_t[flat_index(*label_to_tuple(s))]) for s in tr] == [1, -1, 1]
    # each variable occurs in two of the three observables, so the products
    # of the variables multiply to +1 while the signs multiply to -1
    assert lhv_oracle(upb_t, tr) == 0
    # a component at or below sign_tol imposes no constraint; with one of the
    # three dropped, one free variable fixes the other two: 2 assignments
    uneven = np.zeros(64)
    uneven[0] = 1 / (2 * SQRT2)
    for label, value in zip(tr, (0.1, -0.01, 0.1)):
        uneven[flat_index(*label_to_tuple(label))] = value
    assert lhv_oracle(uneven, tr, sign_tol=0.0) == 0
    assert lhv_oracle(uneven, tr, sign_tol=0.01) == 2
    assert lhv_oracle(uneven, tr, sign_tol=0.1) == 8


def test_oracle_cross_compatibility():
    upb_t = to_coherence(rho_upb())
    oq_t = to_coherence(rho_oq())
    for tr in OQ_TRIPLES:
        assert lhv_oracle(upb_t, tr) == 2
    for tr in UPB_TRIPLES:
        assert lhv_oracle(oq_t, tr) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_triple_tolerances_are_checked(bad):
    # with these values a zero component got sign -1 instead of no constraint
    with pytest.raises(ValueError, match="sign_tol"):
        lhv_oracle(to_coherence(rho_upb()), UPB_TRIPLES[0], sign_tol=bad)


@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (64,)])
def test_pt_routes_reject_non_8x8_shapes(solver_calls, shape):
    # a 4x4 used to fail inside numpy with "cannot reshape array of size 16"
    rho = np.zeros(shape, dtype=complex)
    for route in (lambda r: partial_transpose(r, Cut.Q1), min_pt_eigs):
        with pytest.raises(ShapeMismatch, match=re.escape(str(shape))):
            route(rho)
    assert solver_calls == []
