"""Exact identities that prove a claim for every time, checked in integer
arithmetic with no eigen solve."""

import numpy as np
import pytest

from upb3q.dynamics import COS_SET, ORBIT, SIN_SET, STAGE1, STAGE2, BadAxis, adjoint_matrix, rodrigues_flow
from upb3q.pauli import INDICES, SIGMA, SQRT2, label_index, to_coherence
from upb3q.states import UPB_MINUS, UPB_PLUS, X, expected_upb_tensor, rho_sep, rho_upb


@pytest.mark.parametrize("axis", [STAGE1, ORBIT], ids=["333", "222"])
def test_adjoint_matrix_is_an_exact_rodrigues_generator(axis, solver_calls):
    # S = sqrt2 R is an integer matrix with S^3 = -S exactly, so R^3 = -R/2 and
    # exp(tR) = I + sqrt2 sin(t/sqrt2) R + 2 (1 - cos(t/sqrt2)) R^2 for every t;
    # the rodrigues.* claims check that closed form at a grid of times only
    r = adjoint_matrix(axis)
    s = np.rint(SQRT2 * r).astype(np.int64)
    assert s.any() and set(np.unique(s)) <= {-1, 0, 1}
    assert np.array_equal(s @ s @ s, -s)
    assert r.tobytes() == (s * (0.25 * SQRT2**3)).tobytes()
    assert solver_calls == []


@pytest.mark.parametrize(
    "bad", [333, 222, "222", ["222"], np.array(["222"]), ("222", "333"), STAGE2],
    ids=["int-333", "int-222", "str", "list", "array", "two-labels", "STAGE2"])
def test_closed_form_flows_take_only_stage1_or_orbit(bad):
    # the axis used to be the int 333 or 222, a second name for STAGE1 and
    # ORBIT; an array of one label compares equal to ORBIT elementwise
    c = to_coherence(rho_upb())
    with pytest.raises(BadAxis):
        adjoint_matrix(bad)
    with pytest.raises(BadAxis):
        rodrigues_flow(bad, 0.3, c)


def _gaussian(m):
    """A complex matrix with Gaussian-integer entries as (real, imag) int64 matrices, exactly."""
    re, im = np.rint(m.real).astype(np.int64), np.rint(m.imag).astype(np.int64)
    assert np.array_equal(re + 1j * im, m)
    return re, im


def _gmul(x, y):
    return x[0] @ y[0] - x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0]


def _transpose_qubit(x, q):
    """The partial transpose of qubit q (1-based) of both parts of an 8x8 Gaussian matrix."""
    axes = [0, 1, 2, 3, 4, 5]
    axes[q - 1], axes[q + 2] = axes[q + 2], axes[q - 1]
    return tuple(p.reshape((2,) * 6).transpose(axes).reshape(8, 8) for p in x)


def _permute_qubits(x, order):
    """Both parts of an 8x8 Gaussian matrix with its qubits, rows and columns alike, read in order (0-based)."""
    axes = list(order) + [q + 3 for q in order]
    return tuple(p.reshape((2,) * 6).transpose(axes).reshape(8, 8) for p in x)


def _same(x, y):
    return all(np.array_equal(p, q) for p, q in zip(x, y))


# The 64 Pauli products P_a = sigma_j x sigma_k x sigma_l, flat-indexed, as Gaussian-integer matrices.
_PAULIS = [_gaussian(np.kron(np.kron(SIGMA[j], SIGMA[k]), SIGMA[l])) for j, k, l in INDICES]


def _combination(coefficients):
    """sum_a n_a P_a for integer coefficients n_a, as a Gaussian-integer matrix."""
    return tuple(sum(int(n) * p[part] for n, p in zip(coefficients, _PAULIS)) for part in (0, 1))


def _sep_in_units_of_x():
    """rho_sep's coherence vector in units of x, exactly: the reflection of rho_upb's table."""
    table = expected_upb_tensor()
    upb = np.rint(table / X).astype(np.int64)  # rho_upb's components in units of x
    assert np.abs(upb * X - table).max() < 1e-15
    return np.where(np.arange(64) == 0, upb, -upb)  # rho_sep = I/4 - rho_upb


def test_orbit_law_holds_at_every_time(solver_calls):
    # With S = sqrt2 R (S^3 = -S, certified above) and phi = t/sqrt2, the
    # orbit from c0 = x K is c(t) = x (K + sin(phi) S K + (1 - cos(phi)) S^2 K)
    # for an integer K.  So S K and S^2 K fix each component's time dependence
    # exactly: -x sin(phi) on SIN_SET and -x cos(phi) on COS_SET
    # (orbit.sinusoids), and constant on the trace and on every other
    # component, all those of weight <= 2 among them (orbit.conserved_coherences).
    s = np.rint(SQRT2 * adjoint_matrix(ORBIT)).astype(np.int64)
    k = _sep_in_units_of_x()
    sin_set, cos_set = np.isin(np.arange(64), SIN_SET), np.isin(np.arange(64), COS_SET)
    assert np.array_equal(s @ k, np.where(sin_set, -1, 0))
    assert np.array_equal(s @ s @ k, np.where(cos_set, 1, 0))
    assert (k[sin_set] == 0).all() and (k[cos_set] == -1).all()
    assert not s[0].any() and not s[:, 0].any()
    assert (np.count_nonzero(INDICES[sin_set | cos_set], axis=1) == 3).all()
    assert solver_calls == []


def test_orbit_is_a_scaled_projector_with_ppt_projector_transposes_at_every_time(solver_calls):
    # Along the orbit c(t) keeps rho_sep's components of weight <= 2, and the
    # 3-coherences are -x sin(phi) on SIN_SET and -x cos(phi) on COS_SET, phi =
    # t/sqrt2 (orbit.sinusoids).  As x Lambda_a = P_a / 32 for the Pauli
    # product P_a = sigma_j x sigma_k x sigma_l, 32 rho(phi) = A + B sin + C cos
    # with Gaussian-integer A, B, C.  With u = tan(phi/2), M(u) = (1 + u^2) 32 rho
    # = (1 + u^2) A + 2u B + (1 - u^2) C.  M^2 = 8 (1 + u^2) M is 4 rho^2 = rho:
    # the spectrum is {0, 1/4}, so with tr rho = 1 the state is PSD of rank 4.
    # Each side is a polynomial of degree <= 4 in u, so u = 0..4 proves it for
    # every u, and every phi by continuity; likewise for the reflection
    # I/4 - rho and every partial transpose (ppt.orbit, orbit.rank).
    sep = _sep_in_units_of_x()
    assert (sep[list(SIN_SET)] == 0).all() and (sep[list(COS_SET)] == -1).all()  # phi = 0
    a_coef, b_coef, c_coef = sep.copy(), np.zeros(64, np.int64), np.zeros(64, np.int64)
    a_coef[list(SIN_SET + COS_SET)] = 0
    b_coef[list(SIN_SET)] = -1
    c_coef[list(COS_SET)] = -1
    a, b, c = _combination(a_coef), _combination(b_coef), _combination(c_coef)
    eye = np.eye(8, dtype=np.int64)
    for u in range(5):
        s = 1 + u * u
        m = tuple(s * a[p] + 2 * u * b[p] + (1 - u * u) * c[p] for p in (0, 1))
        for state in (m, (8 * s * eye - m[0], -m[1])):  # the state, then its reflection
            for x in [state] + [_transpose_qubit(state, q) for q in (1, 2, 3)]:
                assert np.array_equal(x[0], x[0].T) and np.array_equal(x[1], -x[1].T)
                assert (np.trace(x[0]), np.trace(x[1])) == (32 * s, 0)
                sq = _gmul(x, x)
                assert np.array_equal(sq[0], 8 * s * x[0]) and np.array_equal(sq[1], 8 * s * x[1])
    assert solver_calls == []


def test_base_states_are_ppt_and_cyclic_but_not_swap_symmetric(solver_calls):
    # From the table alone: c_0 = 4x and x Lambda_a = P_a / 32, so 32 rho_upb =
    # 4 I + (P_a summed over UPB_PLUS) - (P_a summed over UPB_MINUS), and
    # 32 rho_sep = 8 I - 32 rho_upb.  Both are 4 rho^2 = rho with trace 1, so
    # PSD, and each equals its partial transpose on every cut, so each is PPT
    # (Peres): no table label holds a 2, the one index a transpose negates.
    # The Shifts UPB is invariant under the cyclic qubit shift, and so are
    # both states, but no swap of two qubits fixes them.
    coef = np.zeros(64, np.int64)
    coef[0] = 4
    for labels, sign in ((UPB_PLUS, 1), (UPB_MINUS, -1)):
        coef[[label_index(s) for s in labels]] = sign
    upb = _combination(coef)
    sep = (8 * np.eye(8, dtype=np.int64) - upb[0], -upb[1])
    for x, rho in ((upb, rho_upb()), (sep, rho_sep())):
        assert np.abs((x[0] + 1j * x[1]) / 32 - rho).max() < 1e-15  # the table is the kets' state
        assert (np.trace(x[0]), np.trace(x[1])) == (32, 0)
        assert _same(_gmul(x, x), (8 * x[0], 8 * x[1]))
        for q in (1, 2, 3):
            assert _same(_transpose_qubit(x, q), x)
        assert _same(_permute_qubits(x, (1, 2, 0)), x)
        for swap in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert not _same(_permute_qubits(x, swap), x)
    assert solver_calls == []


@pytest.mark.parametrize("labels", [STAGE1, STAGE2, ORBIT], ids=["STAGE1", "STAGE2", "ORBIT"])
def test_generators_are_closed_under_the_cyclic_shift(labels, solver_calls):
    # The cyclic qubit shift maps P_jkl to P_klj, so a label set closed under
    # jkl -> klj sums to a generator that commutes with the shift.  Its flow
    # then keeps rho_sep, which the shift fixes (certified above), cyclic at
    # every time: the symmetry by which prepare_upb carries each probe's cut-1
    # minimum to cuts 2 and 3.
    assert {s[1:] + s[0] for s in labels} == set(labels)
    coef = np.zeros(64, np.int64)
    coef[[label_index(s) for s in labels]] = 1
    h = _combination(coef)  # the sum of P_a over the labels: 2 sqrt2 generator(*labels)
    assert _same(_permute_qubits(h, (1, 2, 0)), h)
    assert solver_calls == []
