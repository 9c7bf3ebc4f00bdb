import re

import numpy as np
import pytest

from upb3q import entanglement, linalg
from upb3q.entanglement import (
    OQ_TRIPLES,
    UPB_TRIPLES,
    lhv_oracle,
    partial_transpose,
    triple_value,
    verify_triple_structure,
)
from upb3q.linalg import ShapeMismatch
from upb3q.pauli import (
    INDICES,
    SQRT2,
    from_coherence,
    ket_from_string,
    label_index,
    to_coherence,
)
from upb3q.states import X, rho_oq, rho_sep, rho_upb

from helpers import min_pt_eig_alone, min_pt_eigs

X3 = X**3


def ghz():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / SQRT2
    return np.outer(v, v.conj())


def ppt(rho):
    """The PPT verdict: no cut's partial transpose has an eigenvalue below -1e-10."""
    return (min_pt_eigs(rho) >= -1e-10).all(-1)


@pytest.mark.parametrize("qubit", [1, 2, 3])
def test_partial_transpose_routes_agree(qubit):
    rng = np.random.default_rng(7 + qubit)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    via_matrix = partial_transpose(rho)[qubit - 1]
    # in coherence coordinates the transpose negates the components whose
    # index on that qubit is 2, the only antisymmetric basis direction
    tens = to_coherence(rho)
    via_tensor = from_coherence(np.where(INDICES[:, qubit - 1] == 2, -tens, tens))
    assert np.abs(via_matrix - via_tensor).max() < 1e-13
    # PT is an involution and trace preserving
    assert np.abs(partial_transpose(via_matrix)[qubit - 1] - rho).max() == 0.0
    assert abs(np.trace(via_matrix).real - 1.0) < 1e-13
    # a leading batch axis transposes each member; min_pt_eigs then solves the
    # whole stack at once, with the bits of one matrix at a time
    stack = np.array([[rho, via_matrix], [ghz(), rho_upb()]])
    pts = partial_transpose(stack)[..., qubit - 1, :, :]
    mins = min_pt_eigs(stack)[..., qubit - 1]
    assert mins.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        assert np.array_equal(pts[idx], partial_transpose(stack[idx])[qubit - 1])
        assert mins[idx] == min_pt_eig_alone(stack[idx], qubit)


@pytest.mark.parametrize("kind", ["int", "float", "complex"])
def test_partial_transpose_keeps_the_input_dtype_kind(monkeypatch, kind):
    # partial_transpose reads the dtype as jacobi_eigh does: an int or float
    # stack comes back float64 with the bits of the complex route's real part,
    # a complex one stays complex128, and min_pt_eigs solves each in its own
    rng = np.random.default_rng(41)
    if kind == "int":
        m = rng.integers(-4, 5, size=(6, 8, 8))
        rho = m + np.swapaxes(m, -1, -2)
    else:
        m = rng.normal(size=(6, 8, 8)) + (1j * rng.normal(size=(6, 8, 8)) if kind == "complex" else 0)
        rho = m @ np.swapaxes(m.conj(), -1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    pts = partial_transpose(rho)
    if kind == "complex":
        assert pts.dtype == np.complex128
    else:
        assert pts.dtype == np.float64
        assert pts.tobytes() == partial_transpose(rho.astype(complex)).real.tobytes()
    sweeps = []
    inner = linalg._sweep
    monkeypatch.setattr(linalg, "_sweep", lambda av: sweeps.append(av.dtype) or inner(av))
    mins = min_pt_eigs(rho)
    assert set(sweeps) == {pts.dtype}
    if kind == "float":
        assert np.abs(mins - min_pt_eigs(rho.astype(complex))).max() <= 1e-15


def test_qubit_shift_reads_the_qubits_in_the_order_2_3_1_and_carries_each_cut_to_cut_1():
    # a product a x b x c shifts to b x c x a, and the qubit-1 transpose of
    # Pi rho Pi^T (of Pi^2 rho Pi^2T) is rho's qubit-2 (qubit-3) transpose
    # shifted alike, bit for bit: a cyclic rho has one spectrum on every cut
    rng = np.random.default_rng(5)
    shift = entanglement._QUBIT_SHIFT
    a, b, c = rng.integers(-9, 10, size=(3, 2)) + 1j * rng.integers(-9, 10, size=(3, 2))  # exact products
    assert np.array_equal(np.kron(np.kron(a, b), c)[shift], np.kron(np.kron(b, c), a))
    rho = rng.normal(size=(4, 8, 8)) + 1j * rng.normal(size=(4, 8, 8))
    shifted, pts = rho, partial_transpose(rho)
    for cut in (2, 3):
        shifted, pts = shifted[:, shift[:, None], shift], pts[..., shift[:, None], shift]
        assert np.array_equal(partial_transpose(shifted)[:, 0], pts[:, cut - 1])


def test_partial_transpose_takes_a_qubit():
    # row q - 1 of the stack transposes qubit q's own factor of a product state
    for qubit in (1, 2, 3):
        factors = [np.eye(2), np.eye(2), np.eye(2)]
        factors[qubit - 1] = np.array([[0, 1], [0, 0]], dtype=complex)
        m = np.kron(np.kron(*factors[:2]), factors[2])
        factors[qubit - 1] = factors[qubit - 1].T
        assert np.array_equal(partial_transpose(m)[qubit - 1], np.kron(np.kron(*factors[:2]), factors[2]))


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
        per_cut = np.array([min_pt_eig_alone(stack[idx], q) for q in (1, 2, 3)])
        assert np.array_equal(mins[idx], per_cut)
        assert verdicts[idx] == bool((per_cut >= -1e-10).all())
        assert np.array_equal(min_pt_eigs(stack[idx]), mins[idx])
    assert verdicts.tolist() == [[False, True, True], [False, True, True]]


def test_triple_families_structure():
    for triples in (UPB_TRIPLES, OQ_TRIPLES):
        assert len(triples) == 4
        for tr in triples:
            assert verify_triple_structure(tr)


def test_structure_check_of_a_tuple_of_triples_gives_each_verdict():
    # lhv.structure checks its eight triples in one stacked product of each kind
    bad = (("100", "200", "300"), ("110", "220", "330"), ("033", "303", "300"))
    triples = UPB_TRIPLES + bad + OQ_TRIPLES
    assert verify_triple_structure(triples) == tuple(map(verify_triple_structure, triples))
    assert verify_triple_structure(triples) == (True,) * 4 + (False,) * 3 + (True,) * 4
    assert verify_triple_structure((UPB_TRIPLES[0],)) == (True,)
    with pytest.raises(ValueError, match="exactly 3 component labels, got 2"):
        verify_triple_structure((UPB_TRIPLES[0], ("031", "301")))


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


@pytest.mark.parametrize("bad", [("031", "301"), ("031", "301", "330", "013"), "031", 5, None])
def test_triple_routes_require_exactly_three_labels(bad):
    # a 4-label tuple used to run the old joint oracle (count 0) and a 2-label
    # one gave 2, while the structure check failed inside tuple unpacking; a
    # triple with no length raised a bare TypeError from len()
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


def test_oracle_counts_per_triple(monkeypatch):
    upb_t = to_coherence(rho_upb())
    sep_t = to_coherence(rho_sep())
    for tr in UPB_TRIPLES:
        assert lhv_oracle(upb_t, tr) == 0
        assert lhv_oracle(sep_t, tr) == 2
    # a huge threshold leaves the triple unconstrained: the count is the full
    # assignment space of its 3 variables
    monkeypatch.setattr(entanglement, "_SIGN_TOL", 1.0)
    assert lhv_oracle(upb_t, UPB_TRIPLES[0]) == 8


def test_oracle_sign_thresholds(monkeypatch):
    upb_t = to_coherence(rho_upb())
    tr = UPB_TRIPLES[0]  # (031, 301, 330): signs (+, -, +) on rho_upb
    assert [np.sign(upb_t[label_index(s)]) for s in tr] == [1, -1, 1]
    # each variable occurs in two of the three observables, so the products
    # of the variables multiply to +1 while the signs multiply to -1
    assert lhv_oracle(upb_t, tr) == 0
    # a component at or below _SIGN_TOL imposes no constraint; with one of the
    # three dropped, one free variable fixes the other two: 2 assignments
    uneven = np.zeros(64)
    uneven[0] = 1 / (2 * SQRT2)
    for label, value in zip(tr, (0.1, -0.01, 0.1)):
        uneven[label_index(label)] = value
    for tol, count in ((0.0, 0), (0.01, 2), (0.1, 8)):
        monkeypatch.setattr(entanglement, "_SIGN_TOL", tol)
        assert lhv_oracle(uneven, tr) == count


def test_oracle_cross_compatibility():
    upb_t = to_coherence(rho_upb())
    oq_t = to_coherence(rho_oq())
    for tr in OQ_TRIPLES:
        assert lhv_oracle(upb_t, tr) == 2
    for tr in UPB_TRIPLES:
        assert lhv_oracle(oq_t, tr) == 2


@pytest.mark.parametrize("rho, error, match", [
    pytest.param(np.zeros((4, 4)), ShapeMismatch, re.escape("(4, 4)"), id="shape0"),
    pytest.param(np.zeros((3, 4, 4)), ShapeMismatch, re.escape("(3, 4, 4)"), id="shape1"),
    pytest.param(np.zeros(64), ShapeMismatch, re.escape("(64,)"), id="shape2"),
    pytest.param(np.full((8, 8), np.nan), ValueError, "finite", id="nan"),
    pytest.param(np.array([np.eye(8), np.diag([np.inf] + [1.0] * 7)]), ValueError, "finite", id="inf"),
    pytest.param(np.full((8, 8), None), ValueError, "must be numbers, got dtype object", id="none"),
])
def test_pt_routes_reject_non_8x8_shapes(solver_calls, rho, error, match):
    # a 4x4 used to fail inside numpy with "cannot reshape array of size 16",
    # and a NaN or inf entry, or an object array of None, came back as a NaN
    # matrix; None is not a number, the rule of every array argument
    with pytest.raises(error, match=match):
        partial_transpose(rho)
    assert solver_calls == []
