import itertools
import re

import numpy as np
import pytest

from upb3q import states
from upb3q.linalg import ShapeMismatch, jacobi_eigh
from upb3q.pauli import SQRT2, from_coherence, ket_from_string, to_coherence
from upb3q.states import (
    FAMILY_SYMBOLS,
    X,
    NotOrthogonal,
    WrongCount,
    check_upb,
    complement_map,
    expected_oq_tensor,
    expected_upb_tensor,
    family,
    family_mixture,
    partial_reflect,
    reflect,
    reflect_density,
    rho_oq,
    rho_sep,
    rho_upb,
    spectrum_in_C,
)


def test_x_constant():
    assert abs(X - 1 / (8 * SQRT2)) < 1e-16


@pytest.mark.parametrize("name", sorted(FAMILY_SYMBOLS))
def test_families_are_orthonormal_product_sets(name):
    kets = family(name)
    assert len(kets) == 4
    for a, b in itertools.combinations(kets, 2):
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-14
    for k in kets:
        assert abs(np.vdot(k.amplitudes, k.amplitudes).real - 1) < 1e-14


def test_family_takes_a_family_name():
    # a list used to raise a bare TypeError (unhashable type) from the lookup
    for bad in ("chi", [], None, 3, ("psi",)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            family(bad)


@pytest.mark.parametrize("name", sorted(FAMILY_SYMBOLS))
def test_family_mixture_is_state(name):
    rho = family_mixture(name)
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-14


def test_rho_upb_matches_component_table():
    got = to_coherence(rho_upb())
    want = expected_upb_tensor()
    assert np.abs(got - want).max() < 1e-14
    # sign census of the table itself
    vals = want[1:]
    assert np.sum(np.abs(vals - X) < 1e-15) == 10
    assert np.sum(np.abs(vals + X) < 1e-15) == 6
    assert np.sum(np.abs(vals) < 1e-15) == 47


def test_rho_oq_matches_component_table():
    got = to_coherence(rho_oq())
    assert np.abs(got - expected_oq_tensor()).max() < 1e-14


def test_sep_and_upb_components_are_negatives():
    s = to_coherence(rho_sep())
    u = to_coherence(rho_upb())
    assert np.abs(s[1:] + u[1:]).max() < 1e-14
    assert abs(s[0] - u[0]) < 1e-15


def test_distance_between_partners():
    # 32 slots differ by 2x ... no: 16 slots flip sign, each contributing (2x)^2
    d = np.linalg.norm(rho_sep() - rho_upb())
    assert abs(d - np.sqrt(16 * (2 * X) ** 2)) < 1e-14
    assert abs(d - 1 / SQRT2) < 1e-14


def test_reflect_swaps_partners_and_is_involution():
    t_sep = to_coherence(rho_sep())
    assert np.abs(from_coherence(reflect(t_sep)) - rho_upb()).max() < 1e-14
    twice = reflect(reflect(t_sep))
    assert np.abs(twice - t_sep).max() == 0.0
    assert np.abs(reflect_density(rho_upb()) - rho_sep()).max() < 1e-14


PAIRS = [(1, 2), (1, 3), (2, 3)]  # the rows of partial_reflect, in order


@pytest.mark.parametrize("pair", PAIRS)
def test_partial_reflect_pairs_hit_upb(pair):
    t_sep = to_coherence(rho_sep())
    out = from_coherence(partial_reflect(t_sep)[PAIRS.index(pair)])
    assert np.abs(out - rho_upb()).max() < 1e-14


def in_set_c(rho):
    """Membership of C from the library's own spectra, as the claims test it."""
    return spectrum_in_C(jacobi_eigh(rho, want_vectors=False)[0])


def test_in_set_c():
    assert in_set_c(rho_sep())
    assert in_set_c(rho_upb())
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / SQRT2
    assert not in_set_c(np.outer(ghz, ghz.conj()))  # top eigenvalue 1 > 1/4


def test_in_set_c_checks_the_lower_bound(monkeypatch):
    # trace 1 and top eigenvalue 0.15 <= 1/4, but one eigenvalue below 0
    below = np.diag([-0.05] + [0.15] * 7).astype(complex)
    assert not in_set_c(below)
    assert not spectrum_in_C(np.linalg.eigvalsh(below))
    monkeypatch.setattr(states, "_C_TOL", 0.06)
    assert in_set_c(below)


def test_in_set_c_stack_matches_per_matrix_calls():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / SQRT2
    members = [rho_sep(), rho_upb(), rho_oq(), np.outer(ghz, ghz.conj()),
               np.diag([-0.05] + [0.15] * 7), reflect_density(rho_oq())]
    stack = np.array(members, dtype=complex).reshape(3, 2, 8, 8)
    each = [[in_set_c(stack[i, j]) for j in range(2)] for i in range(3)]
    assert each == [[True, True], [True, False], [False, True]]
    # a stack's one verdict is all() of its members' verdicts: False with
    # members outside C, True once only the members inside are left
    assert in_set_c(stack) is False
    inside = stack.reshape(6, 8, 8)[[0, 1, 2, 5]]
    assert all(in_set_c(m) for m in inside)
    assert in_set_c(inside) is True
    assert isinstance(in_set_c(rho_sep()), bool)


def test_complement_map_validation():
    kets = family("psi")
    rho = complement_map(kets)
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    with pytest.raises(WrongCount):
        complement_map(kets[:3])
    overlapping = (kets[0], kets[1], kets[2], kets[2])
    with pytest.raises(NotOrthogonal):
        complement_map(overlapping)


def test_complement_annihilates_members():
    kets = family("psi")
    rho = rho_upb()
    for k in kets:
        assert np.abs(rho @ k.amplitudes).max() < 1e-14


@pytest.mark.parametrize("name", sorted(FAMILY_SYMBOLS))
def test_all_four_families_are_upbs(name):
    res = check_upb(family(name))
    assert res.orthogonal
    assert res.extension_witness is None


def test_weakened_set_is_extendable():
    kets = family("psi")[:3] + (ket_from_string("111"),)
    res = check_upb(kets)
    w = res.extension_witness
    assert w is not None
    # deterministic first witness of the lexicographic assignment scan
    assert abs(abs(np.vdot(ket_from_string("1-0").amplitudes, w.amplitudes)) - 1.0) < 1e-12
    for k in kets:
        assert abs(np.vdot(k.amplitudes, w.amplitudes)) < 1e-10


def test_extendable_detection_reports_orthogonality():
    # non-orthogonal input set: flag goes down, search still runs
    kets = (
        ket_from_string("000"),
        ket_from_string("00+"),
        ket_from_string("110"),
        ket_from_string("1-1"),
    )
    res = check_upb(kets)
    assert not res.orthogonal


@pytest.mark.parametrize("bad", [1, "000", None, np.zeros(8)])
def test_check_upb_requires_product_kets(bad):
    # check_upb([1, 2, 3, 4]) and complement_map(["000", ...]) used to raise a
    # bare AttributeError: ... has no attribute 'amplitudes'
    for pos in (0, 2):
        kets = list(family("psi"))
        kets[pos] = bad
        for route in (check_upb, complement_map):
            with pytest.raises(ValueError, match=f"ket {pos} must be a ProductKet, got "):
                route(kets)


@pytest.mark.parametrize("count", [0, 3, 5])
def test_check_upb_requires_four_kets(count):
    # an empty set used to raise "max() arg is an empty sequence" from the
    # witness check; 3 and 5 kets were searched as if they were a basis
    kets = (family("psi") + family("theta"))[:count]
    with pytest.raises(WrongCount, match=f"need exactly 4 kets, got {count}"):
        check_upb(kets)
    with pytest.raises(WrongCount, match=f"need exactly 4 kets, got {count}"):
        complement_map(kets)


@pytest.mark.parametrize("bad", [5, None, 1.5])
def test_check_upb_rejects_a_non_iterable(bad):
    # check_upb(5) and complement_map(None) used to raise a bare TypeError
    # from tuple(kets)
    for route in (check_upb, complement_map):
        with pytest.raises(WrongCount, match=f"need exactly 4 kets, got {bad!r}"):
            route(bad)


@pytest.mark.parametrize("w", [np.full(8, 0.1 + 1j), np.full(8, 0.1 + 0j), np.array(["0.1"] * 8),
                               np.full(8, 0.1, dtype=object), np.full(8, True),
                               np.full(8, np.nan), np.array([0.1] * 7 + [np.inf]),
                               np.stack([np.full(8, 0.1), np.full(8, -np.inf)])],
                         ids=["complex", "complex-real", "str", "object", "bool", "nan", "inf", "stack"])
def test_spectrum_in_c_requires_real_finite_spectra(w):
    # a complex spectrum used to be graded by numpy's ordering of complex
    # numbers (0.1+1j gave True), a string array raised numpy's bare
    # UFuncTypeError, and an all-NaN spectrum gave False without an error
    with pytest.raises(ValueError, match="spectra must be (real numbers|finite)"):
        spectrum_in_C(w)
    assert spectrum_in_C(np.zeros(8, dtype=int)) and spectrum_in_C(np.full(8, 0.25, dtype=np.float32))


@pytest.mark.parametrize("shape", [(4,), (3, 4), (64,)])
def test_in_set_c_rejects_non_8x8_shapes(solver_calls, shape):
    # the spectrum of np.eye(4) / 4, a stack of three of them, and a (64,)
    # coherence vector all lie in [0, 1/4] and used to give True
    w = np.full(shape, 0.25) if shape[-1] == 4 else np.zeros(shape)
    with pytest.raises(ShapeMismatch, match=r"spectra must have shape \(\.\.\., 8\)"):
        spectrum_in_C(w)
    assert solver_calls == []
