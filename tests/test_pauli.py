import re

import numpy as np
import pytest

from upb3q.dynamics import rodrigues_flow
from upb3q.entanglement import UPB_TRIPLES, lhv_oracle, triple_value
from upb3q.linalg import NonHermitian, ShapeMismatch
from upb3q.pauli import (
    LAMBDA_BASIS,
    SQRT2,
    BadAncilla,
    BadLength,
    BadSubset,
    BadSymbol,
    bloch_vector,
    coherence_product,
    flat_index,
    from_coherence,
    index_tuple,
    ket_from_string,
    label_to_tuple,
    lambda_matrix,
    lambda_tensor,
    product_ket_from_locals,
    reduced_density,
    to_coherence,
)
from upb3q.states import partial_reflect, reflect, rho_upb

RNG = np.random.default_rng(20240817)


def random_hermitian(n=8):
    m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_density(n=8):
    m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_basis_is_trace_orthonormal():
    gram = np.einsum("aij,bji->ab", LAMBDA_BASIS, LAMBDA_BASIS)
    assert np.abs(gram - np.eye(64)).max() < 1e-14


def test_lambda_matrix_normalization():
    for mu in range(4):
        lam = lambda_matrix(mu)
        assert abs(np.trace(lam @ lam).real - 1.0) < 1e-15
    with pytest.raises(ValueError):
        lambda_matrix(4)


def test_flat_index_round_trip():
    for a in range(64):
        assert flat_index(*index_tuple(a)) == a
    assert flat_index(0, 3, 1) == 13
    assert label_to_tuple("031") == (0, 3, 1)
    with pytest.raises(ValueError):
        label_to_tuple("04x")


def test_to_from_coherence_round_trip():
    rho = random_density()
    tens = to_coherence(rho)
    assert np.abs(from_coherence(tens) - rho).max() < 1e-13
    # trace-1 input pins the (0,0,0) component
    assert abs(tens[0] - 1 / (2 * SQRT2)) < 1e-13


def test_to_coherence_rejects_non_hermitian():
    bad = random_density()
    bad[0, 1] += 1e-6
    with pytest.raises(NonHermitian):
        to_coherence(bad)


def test_to_coherence_rejects_nan():
    bad = random_density()
    bad[3, 3] = np.nan
    with pytest.raises(NonHermitian):
        to_coherence(bad)


def test_coherence_vector_access():
    tens = np.zeros(64)
    tens[0] = 1 / (2 * SQRT2)
    tens[flat_index(*label_to_tuple("031"))] = 0.5
    tens[flat_index(*label_to_tuple("111"))] = -0.25
    assert tens[flat_index(0, 3, 1)] == 0.5
    assert tens[flat_index(1, 1, 1)] == -0.25
    assert tens[flat_index(0, 0, 0)] == 1 / (2 * SQRT2)
    with pytest.raises(ShapeMismatch):
        from_coherence(np.zeros(63))


def test_purity_equals_component_square_sum():
    rho = random_density()
    tens = to_coherence(rho)
    assert abs(np.sum(tens**2) - np.trace(rho @ rho).real) < 1e-12


def test_ket_from_string():
    ket = ket_from_string("01+")
    expect = np.zeros(8, dtype=complex)
    expect[2] = 1 / SQRT2  # |010>
    expect[3] = 1 / SQRT2  # |011>
    assert np.abs(ket.amplitudes - expect).max() < 1e-15
    proj = ket.projector()
    assert abs(np.trace(proj).real - 1.0) < 1e-15
    with pytest.raises(BadLength):
        ket_from_string("01")
    with pytest.raises(BadSymbol):
        ket_from_string("01x")


def test_product_ket_from_locals_normalizes():
    v0 = np.array([1.0, 0.0])
    vp = np.array([1.0, 1.0]) / SQRT2
    odd = np.array([2.0, 1.0j])  # not a named direction; gets normalized
    ket = product_ket_from_locals([v0, vp, odd])
    assert abs(np.vdot(ket.amplitudes, ket.amplitudes).real - 1.0) < 1e-14
    assert np.abs(ket.amplitudes - np.kron(np.kron(v0, vp), odd / np.sqrt(5.0))).max() < 1e-15


def test_product_ket_from_locals_rejects_non_finite():
    # a NaN used to slip past the zero-norm guard and give a '?' ket of NaNs
    ok = np.array([1.0, 0.0])
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1e200, 1e200]):
        with pytest.raises(ValueError):
            product_ket_from_locals([ok, np.array(bad), ok])


def test_reduced_density_matches_kron_inverse():
    a = random_density(2)
    b = random_density(2)
    c = random_density(2)
    rho = np.kron(np.kron(a, b), c)
    assert np.abs(reduced_density(rho, (1,)) - a).max() < 1e-13
    assert np.abs(reduced_density(rho, (2,)) - b).max() < 1e-13
    assert np.abs(reduced_density(rho, (3,)) - c).max() < 1e-13
    assert np.abs(reduced_density(rho, (1, 3)) - np.kron(a, c)).max() < 1e-13
    for bad in ((), (1, 2, 3), (0,), (4,)):
        with pytest.raises(BadSubset):
            reduced_density(rho, bad)


def test_reduced_density_trace_consistency():
    rho = random_density()
    pair = reduced_density(rho, (2, 3))
    single = reduced_density(rho, (2,))
    # tracing qubit 3 out of the (2,3) marginal must equal the qubit-2 marginal
    again = pair.reshape(2, 2, 2, 2)
    assert np.abs(np.einsum("abcb->ac", again) - single).max() < 1e-13


def test_coherence_product_against_kron():
    rho = random_density()
    tens = to_coherence(rho)
    anc_state = random_density(2)
    anc = np.array([np.trace(anc_state @ lambda_matrix(m)).real for m in range(4)])
    prod = coherence_product(tens, anc)
    big = np.kron(rho, anc_state)
    for a in (0, 13, 21, 57):
        for m in range(4):
            mat = np.kron(LAMBDA_BASIS[a], lambda_matrix(m))
            assert abs(prod[4 * a + m] - np.trace(big @ mat).real) < 1e-12


def test_coherence_product_rejects_bad_ancilla():
    tens = to_coherence(random_density())
    with pytest.raises(BadAncilla):
        coherence_product(tens, (1.0, 0.0, 0.0, 0.0))  # trace slot must be 1/sqrt(2)
    with pytest.raises(BadAncilla):
        coherence_product(tens, (1 / SQRT2, 0.0, 0.0))


def test_coherence_product_rejects_non_finite_and_non_positive_ancilla():
    tens = to_coherence(random_density())
    r = 1 / SQRT2
    for bad in ((np.nan, 0.0, 0.0, 0.0), (r, np.nan, 0.0, 5.0), (r, 0.0, np.inf, 0.0),
                (r, 0.6, 0.0, 0.6)):  # the last has Bloch norm 0.85 > 1/sqrt(2)
        with pytest.raises(BadAncilla):
            coherence_product(tens, bad)
    # a pure ancilla sits exactly on the positivity boundary and is accepted
    pure = coherence_product(tens, (r, 0.0, r / SQRT2, r / SQRT2))
    assert pure.shape == (256,)


def test_bloch_vector_cardinal_directions():
    z = bloch_vector(np.diag([1.0, 0.0]))
    assert np.abs(z - [0, 0, 1]).max() < 1e-15
    plus = ket_from_string("+00").locals[0]
    v = bloch_vector(np.outer(plus, plus.conj()))
    assert np.abs(v - [1, 0, 0]).max() < 1e-14


def test_lambda_tensor_matches_basis():
    assert np.abs(lambda_tensor(0, 3, 1) - LAMBDA_BASIS[13]).max() == 0.0


# Every routine that takes a coherence vector, as a one-argument call.
COHERENCE_CONSUMERS = {
    "from_coherence": from_coherence,
    "reflect": reflect,
    "partial_reflect": lambda c: partial_reflect(c, (1, 2)),
    "rodrigues_flow": lambda c: rodrigues_flow(222, 0.3, c),
    "coherence_product": lambda c: coherence_product(c, (1 / SQRT2, 0.0, 0.0, 0.0)),
    "triple_value": lambda c: triple_value(c, UPB_TRIPLES[0]),
    "lhv_oracle": lambda c: lhv_oracle(c, UPB_TRIPLES[0]),
}


@pytest.mark.parametrize("name", sorted(COHERENCE_CONSUMERS))
def test_coherence_consumers_check_the_64_component_shape(name):
    # these used to raise a bare AttributeError on any array
    route = COHERENCE_CONSUMERS[name]
    for shape in ((63,), (8, 8), (2, 64)):
        with pytest.raises(ShapeMismatch, match=re.escape(str(shape))):
            route(np.zeros(shape))
    upb_t = to_coherence(rho_upb())
    assert np.array_equal(route([float(v) for v in upb_t]), route(upb_t))


@pytest.mark.parametrize("name", sorted(COHERENCE_CONSUMERS))
def test_coherence_consumers_require_real_finite_components(name, solver_calls):
    # lhv_oracle(np.full(64, np.nan), ...) used to return 8 and a complex
    # vector lost its imaginary part with only a numpy ComplexWarning
    route = COHERENCE_CONSUMERS[name]
    upb_t = to_coherence(rho_upb())
    for bad in (np.nan, np.inf, -np.inf):
        c = upb_t.copy()
        c[13] = bad
        with pytest.raises(ValueError, match="must be finite"):
            route(c)
    with pytest.raises(ValueError, match="must be real"):
        route(upb_t + 1e-20j)
    with pytest.raises(ValueError, match="must be real"):
        route(np.full(64, 1j))
    assert solver_calls == []
    assert np.array_equal(route(upb_t + 0j), route(upb_t))


@pytest.mark.parametrize("route", [to_coherence, lambda m: reduced_density(m, (1,)), bloch_vector],
                         ids=["to_coherence", "reduced_density", "bloch_vector"])
def test_matrix_inputs_fail_loudly(route):
    # a 4x4 used to fail inside numpy (reshape or matmul) or with a plain
    # ValueError, and an all-NaN matrix gave NaN without an error
    with pytest.raises(ShapeMismatch, match=re.escape("(4, 4)")):
        route(np.eye(4) / 4)
    n = 2 if route is bloch_vector else 8
    with pytest.raises(NonHermitian):
        route(np.full((n, n), np.nan))
    skew = np.eye(n, dtype=complex) / n
    skew[0, 1] = 1e-6
    with pytest.raises(NonHermitian):
        route(skew)
