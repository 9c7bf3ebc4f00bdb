"""Exact identities that prove a claim for every time, checked in integer
arithmetic with no eigen solve."""

import numpy as np
import pytest

from upb3q.dynamics import ORBIT, STAGE1, STAGE2, BadAxis, adjoint_matrix, rodrigues_flow
from upb3q.pauli import SQRT2, to_coherence
from upb3q.states import rho_upb


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
