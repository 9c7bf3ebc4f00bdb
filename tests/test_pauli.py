import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from upb3q.dynamics import ORBIT, rodrigues_flow
from upb3q.entanglement import UPB_TRIPLES, lhv_oracle, triple_value
from upb3q.linalg import NonHermitian, ShapeMismatch
from upb3q.pauli import (
    INDICES,
    LAMBDA_BASIS,
    SQRT2,
    BadLength,
    BadSymbol,
    ProductKet,
    bloch_vector,
    coherence_product,
    from_coherence,
    ket_from_string,
    label_index,
    lambda_matrix,
    reduced_density,
    to_coherence,
)
from upb3q.states import FAMILY_SYMBOLS, family, partial_reflect, reflect, rho_sep, rho_upb

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


def test_lambda_basis_has_the_bits_of_the_kron_construction():
    # the basis is one broadcast product; np.kron, 128 calls of it, is the oracle
    want = np.stack([np.kron(np.kron(lambda_matrix(j), lambda_matrix(k)), lambda_matrix(l))
                     for j, k, l in itertools.product(range(4), repeat=3)])
    assert LAMBDA_BASIS.shape == want.shape and LAMBDA_BASIS.dtype == want.dtype
    assert LAMBDA_BASIS.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(FAMILY_SYMBOLS))
def test_family_ket_amplitudes_have_the_bits_of_kron(name):
    for ket in family(name):
        a, b, c = ket.locals
        assert ket.amplitudes.tobytes() == np.kron(np.kron(a, b), c).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, (3, 2, 2), elements=st.floats(-1.0, 1.0)))
def test_product_ket_amplitudes_have_the_bits_of_kron(parts):
    # unit locals from any real and imaginary parts; the tiny and subnormal
    # parts that Hypothesis draws exercise underflow in the products
    vecs = parts[..., 0] + 1j * parts[..., 1]
    norms = np.sqrt(np.einsum("ij,ij->i", vecs.conj(), vecs).real)
    assume((norms > 1e-3).all())
    locs = tuple(vecs / norms[:, None])
    ket = ProductKet(locs)
    assert ket.amplitudes.tobytes() == np.kron(np.kron(locs[0], locs[1]), locs[2]).tobytes()


def test_lambda_matrix_normalization():
    for mu in range(4):
        lam = lambda_matrix(mu)
        assert abs(np.trace(lam @ lam).real - 1.0) < 1e-15
    with pytest.raises(ValueError):
        lambda_matrix(4)


@pytest.mark.parametrize("bad", [1.0, True, False, "1", None, -1])
def test_pauli_indices_are_integers_in_range(bad):
    # lambda_matrix(1.0) used to raise a bare TypeError from tuple indexing,
    # and lambda_matrix(True) returned sigma_x/sqrt2
    with pytest.raises(ValueError, match="Pauli index"):
        lambda_matrix(bad)


def test_pauli_indices_accept_numpy_integers():
    assert np.array_equal(lambda_matrix(np.int64(2)), lambda_matrix(2))
    assert label_index("%d%d%d" % tuple(INDICES[27])) == 27


def test_flat_index_round_trip():
    for a in range(64):
        assert label_index("%d%d%d" % tuple(INDICES[a])) == a
    assert label_index("031") == 13
    assert tuple(INDICES[label_index("031")]) == (0, 3, 1)
    with pytest.raises(ValueError):
        label_index("04x")


@pytest.mark.parametrize("label", ["04x", "0031", 31, None, b"031"],
                         ids=["bad-character", "four-characters", "int", "None", "bytes"])
def test_label_index_requires_a_component_label(label):
    # a component is named only by three characters from 0123, one Pauli
    # index per qubit; int(label, 4) alone would read "0031" as 13
    with pytest.raises(ValueError, match="bad component label"):
        label_index(label)


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
    tens[label_index("031")] = 0.5
    tens[label_index("111")] = -0.25
    assert tens[16 * 0 + 4 * 3 + 1] == 0.5
    assert tens[16 * 1 + 4 * 1 + 1] == -0.25
    assert tens[label_index("000")] == 1 / (2 * SQRT2)
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
    # an int used to raise a bare TypeError from len(), and a list of three
    # symbols was accepted as a ket
    for bad in (123, ["0", "1", "+"], None, b"01+"):
        with pytest.raises(BadSymbol, match=re.escape(repr(bad))):
            ket_from_string(bad)


def test_product_ket_is_built_from_its_locals():
    # amplitudes is no constructor argument: it used to be taken as given, so
    # ProductKet(np.ones(4), (np.ones(2), np.ones(2))) built a ket
    locs = tuple(ket_from_string("0+1").locals)
    ket = ProductKet(locs)
    assert ket.amplitudes.tobytes() == np.kron(np.kron(locs[0], locs[1]), locs[2]).tobytes()
    assert ket.amplitudes.tobytes() == ket_from_string("0+1").amplitudes.tobytes()
    assert not any(v.flags.writeable for v in ket.locals + (ket.amplitudes,))
    # the ket freezes copies: complex locals pass the input check uncopied
    mine = [np.array([1.0, 0.0], dtype=complex) for _ in range(3)]
    ProductKet(mine)
    assert all(v.flags.writeable for v in mine)
    with pytest.raises(TypeError):
        ProductKet(np.ones(8), locs)
    v = np.array([1.0, 0.0])
    for bad in ((v, v), (v, v, v, v), (v, v, np.ones(3)), (v, v, np.ones((2, 1))), (np.ones(8),)):
        with pytest.raises(BadLength, match="need 3 local vectors of 2 entries"):
            ProductKet(bad)


def test_product_ket_requires_numeric_locals(solver_calls):
    # ProductKet("abc") and a local of strings used to fail inside numpy with
    # "complex() arg is a malformed string"
    with pytest.raises(BadLength, match="need 3 local vectors of 2 entries"):
        ProductKet("abc")
    v = np.array([1.0, 0.0])
    for bad in ((v, v, np.array(["1", "0"])), (v, v, [None, 1.0]), (v, v, [True, False])):
        with pytest.raises(ValueError, match="local vector entries must be numbers, got dtype"):
            ProductKet(bad)
    assert solver_calls == []


def test_product_ket_replace_and_make_build_from_locals():
    # a NamedTuple's _make and _replace would store any amplitudes given;
    # the ket's go through its constructor, so amplitudes stay the locals' product
    ket, other = ket_from_string("01+"), ket_from_string("-10")
    for made in (ket._replace(locals=other.locals), ProductKet._make([other.locals, ket.amplitudes])):
        assert type(made) is ProductKet
        assert made.amplitudes.tobytes() == other.amplitudes.tobytes()
        assert not made.amplitudes.flags.writeable
    with pytest.raises(ValueError, match="unexpected field names: \\['amplitudes'\\]"):
        ket._replace(amplitudes=other.amplitudes)
    with pytest.raises(ValueError, match="squared norm"):
        ket._replace(locals=(np.ones(2),) * 3)


def test_product_ket_rejects_bad_locals():
    # a NaN local used to build a ket of NaN amplitudes and [2, 0] a ket of
    # norm 8; [1e200, 1e200] overflows its squared norm to inf
    v = np.array([1.0, 0.0])
    for bad in ((np.array([np.nan, 0]),) * 3, (v, v, np.array([np.inf, 0]))):
        with pytest.raises(ValueError, match="NaN or infinite"):
            ProductKet(bad)
    for bad in ((np.array([2, 0]),) * 3, (v, v, np.array([1.0, 1.0])), (v, v, np.zeros(2)),
                (v, v, np.array([1.0 + 1e-12, 0.0])), (v, v, np.array([1e200, 1e200]))):
        with pytest.raises(ValueError, match="squared norm"):
            ProductKet(bad)
    # the +/- symbols have squared norm 0.9999999999999998 and are accepted
    plus = np.array([1.0, 1.0]) / SQRT2
    assert np.vdot(plus, plus) == 0.9999999999999998
    assert ProductKet((plus, v, plus)).amplitudes.tobytes() == ket_from_string("+0+").amplitudes.tobytes()
    assert ProductKet((v, v, np.array([1.0 + 4e-13, 0.0]))).locals[2][0] == 1.0 + 4e-13


def test_reduced_density_matches_kron_inverse():
    a = random_density(2)
    b = random_density(2)
    c = random_density(2)
    rho = np.kron(np.kron(a, b), c)
    marginals = reduced_density(rho)
    assert marginals.shape == (3, 2, 2)
    assert np.abs(marginals[0] - a).max() < 1e-13
    assert np.abs(marginals[1] - b).max() < 1e-13
    assert np.abs(marginals[2] - c).max() < 1e-13


def test_coherence_product_against_kron():
    rho = random_density()
    tens = to_coherence(rho)
    anc_state = np.eye(2) / 2.0
    prod = coherence_product(tens)
    big = np.kron(rho, anc_state)
    for a in (0, 13, 21, 57):
        for m in range(4):
            mat = np.kron(LAMBDA_BASIS[a], lambda_matrix(m))
            assert abs(prod[4 * a + m] - np.trace(big @ mat).real) < 1e-12


def test_bloch_vector_cardinal_directions():
    z = bloch_vector(np.diag([1.0, 0.0]))
    assert np.abs(z - [0, 0, 1]).max() < 1e-15
    plus = ket_from_string("+00").locals[0]
    v = bloch_vector(np.outer(plus, plus.conj()))
    assert np.abs(v - [1, 0, 0]).max() < 1e-14


def test_lambda_tensor_matches_basis():
    # Lambda_jkl is the basis table's row label_index("jkl"), bit for bit
    assert np.array_equal(INDICES[13], (0, 3, 1))
    for a, (j, k, l) in enumerate(itertools.product(range(4), repeat=3)):
        want = np.kron(np.kron(lambda_matrix(j), lambda_matrix(k)), lambda_matrix(l))
        assert LAMBDA_BASIS[label_index(f"{j}{k}{l}")].tobytes() == want.tobytes()
        assert tuple(INDICES[a]) == (j, k, l)


def test_lambda_basis_and_indices_are_read_only():
    # callers index the tables directly, so a write into them must raise
    # rather than corrupt every later expansion
    before = LAMBDA_BASIS.copy()
    for table in (LAMBDA_BASIS, INDICES):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            table += 1
    assert np.array_equal(LAMBDA_BASIS, before)


# Every routine that takes a coherence vector, as a one-argument call.
COHERENCE_CONSUMERS = {
    "from_coherence": from_coherence,
    "reflect": reflect,
    "partial_reflect": partial_reflect,
    "rodrigues_flow": lambda c: rodrigues_flow(ORBIT, 0.3, c),
    "coherence_product": coherence_product,
    "triple_value": lambda c: triple_value(c, UPB_TRIPLES[0]),
    "lhv_oracle": lambda c: lhv_oracle(c, UPB_TRIPLES[0]),
}


# The consumers that also take a stack (..., 64), vector by vector.
STACK_CONSUMERS = {"from_coherence", "reflect"}


@pytest.mark.parametrize("name", sorted(COHERENCE_CONSUMERS))
def test_coherence_consumers_check_the_64_component_shape(name):
    # these used to raise a bare AttributeError on any array
    route = COHERENCE_CONSUMERS[name]
    bad = ((63,), (8, 8), (2, 63)) + (() if name in STACK_CONSUMERS else ((2, 64),))
    for shape in bad:
        with pytest.raises(ShapeMismatch, match=re.escape(str(shape))):
            route(np.zeros(shape))
    upb_t = to_coherence(rho_upb())
    assert np.array_equal(route([float(v) for v in upb_t]), route(upb_t))
    if name in STACK_CONSUMERS:
        stack = np.array([upb_t, to_coherence(rho_sep())])
        assert route(stack).tobytes() == np.array([route(c) for c in stack]).tobytes()


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


@pytest.mark.parametrize("name", sorted(COHERENCE_CONSUMERS))
def test_coherence_consumers_require_numeric_components(name, solver_calls):
    # bool and string vectors used to be read as floats, and an object array
    # of None was reported as not finite
    route = COHERENCE_CONSUMERS[name]
    for bad in ([True] * 64, np.array(["1"] * 64), [b"1"] * 64, np.array([None] * 64)):
        with pytest.raises(ValueError, match="must be real numbers, got dtype"):
            route(bad)
    assert solver_calls == []
    assert np.array_equal(route([0] * 64), route(np.zeros(64)))


@pytest.mark.parametrize("route", [to_coherence, reduced_density, bloch_vector],
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
