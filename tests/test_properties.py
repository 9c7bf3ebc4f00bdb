"""Property tests of the coherence-space sign masks on random trace-1
Hermitian matrices; the matrix routes serve as the oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from upb3q.entanglement import Cut, partial_transpose, partial_transpose_tensor
from upb3q.pauli import from_coherence, to_coherence
from upb3q.states import reflect

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
    assert np.array_equal(reflect(refl).components, tens.components)
    for cut in Cut:
        via_mask = from_coherence(partial_transpose_tensor(tens, cut))
        assert np.abs(via_mask - partial_transpose(rho, cut)).max() < 1e-12
