"""Byte pins of the coherence-to-matrix map.

from_coherence sums the 8 Pauli strings that hit each matrix entry; these
tests hold it to the bytes of the dense einsum over all 64 strings, which is
kept here only as the oracle.  tobytes() tells -0.0 from +0.0.  CI also runs
this file with numpy's AVX512 and AVX2 kernels switched off.
"""

import numpy as np
import pytest

from upb3q import pauli
from upb3q.dynamics import ORBIT, STAGE1, TAU_P, orbit, rodrigues_flow
from upb3q.pauli import LAMBDA_BASIS, from_coherence, to_coherence
from upb3q.states import reflect, rho_sep, rho_upb

RNG = np.random.default_rng(20261019)


def einsum_oracle(c):
    """The dense map: sum over all 64 strings of c_a Lambda_a."""
    return np.einsum("...a,aij->...ij", np.asarray(c, dtype=float), LAMBDA_BASIS)


def _signed_sparse(shape):
    """Mostly +0.0 and -0.0 entries, with a few nonzero ones of either sign."""
    values = np.where(RNG.random(shape) < 0.75, 0.0, RNG.normal(size=shape))
    return values * np.where(RNG.random(shape) < 0.5, -1.0, 1.0)


def _orbit_stack(n):
    tensors = orbit(n).tensors
    return np.stack([tensors, reflect(tensors)], axis=1)


CASES = {
    "stack-(7,64)": RNG.normal(size=(7, 64)),
    "stack-(3,4,64)": RNG.normal(size=(3, 4, 64)),
    "stack-(2,3,2,64)": RNG.normal(size=(2, 3, 2, 64)),
    "one-vector": RNG.normal(size=64),
    "wide-exponents": RNG.normal(size=(40, 64)) * 10.0 ** RNG.integers(-150, 150, size=(40, 64)),
    "sparse-signed-zeros": _signed_sparse((50, 64)),
    "all-minus-zero": np.full((2, 64), -0.0),
    "integers": RNG.integers(-5, 6, size=(6, 64)),
    "empty": np.zeros((0, 64)),
    "rho_upb": to_coherence(rho_upb()),
    "flows": np.concatenate([rodrigues_flow(axis, np.linspace(0.0, TAU_P, 9), to_coherence(rho_sep()))
                             for axis in (STAGE1, ORBIT)]),
}
ORBIT_SAMPLES = (2, 65, 136)


@pytest.mark.parametrize("name", sorted(CASES))
def test_from_coherence_has_the_einsum_bytes(name):
    c = CASES[name]
    got = from_coherence(c)
    want = einsum_oracle(c)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", ORBIT_SAMPLES)
def test_orbit_matrices_have_the_einsum_bytes(n):
    stack = _orbit_stack(n)  # (sample, reflected, 64): the orbit's own call
    assert from_coherence(stack).tobytes() == einsum_oracle(stack).tobytes()


@pytest.mark.parametrize("name", ["stack-(3,4,64)", "sparse-signed-zeros", "integers", "flows"])
def test_each_stacked_matrix_has_the_bytes_of_its_one_vector_call(name):
    c = np.asarray(CASES[name])
    stacked = from_coherence(c).reshape(-1, 8, 8)
    for vector, matrix in zip(c.reshape(-1, 64), stacked):
        assert from_coherence(vector).tobytes() == matrix.tobytes()


def test_orbit_stack_matches_its_one_vector_calls():
    stack = _orbit_stack(65)
    mats = from_coherence(stack)
    for idx in np.ndindex(stack.shape[:-1]):
        assert from_coherence(stack[idx]).tobytes() == mats[idx].tobytes()


def test_from_coherence_makes_no_einsum_call(monkeypatch):
    calls = []
    inner = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    for c in (CASES["one-vector"], CASES["stack-(3,4,64)"], CASES["empty"]):
        from_coherence(c)
    assert calls == []


def test_the_hit_tables_list_eight_ascending_strings_per_entry():
    # every entry is hit by exactly the strings the dense basis has nonzero there
    hits, values = pauli._HITS[:, ::2], pauli._HIT_VALUES.view(complex)  # (term, entry)
    assert hits.shape == values.shape == (8, 64)
    assert (np.diff(hits, axis=0) > 0).all()
    basis = LAMBDA_BASIS.reshape(64, 64)
    for entry in range(64):
        assert np.array_equal(np.flatnonzero(basis[:, entry]), hits[:, entry])
        assert basis[hits[:, entry], entry].tobytes() == values[:, entry].tobytes()
    for table in (pauli._HITS, pauli._HIT_VALUES):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0

