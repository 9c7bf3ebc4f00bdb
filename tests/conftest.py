import pytest

from upb3q import dynamics, linalg


@pytest.fixture
def solver_calls(monkeypatch):
    """Stack size of every internal Jacobi solve made while the test runs.

    The test starts from an empty adjoint generator cache, as in a fresh
    process, so the counts do not depend on which tests ran before it.
    """
    monkeypatch.setattr(dynamics, "_R_CACHE", {})
    sizes = []
    inner = linalg._jacobi_stack

    def counting(mats, *args):
        sizes.append(len(mats))
        return inner(mats, *args)

    monkeypatch.setattr(linalg, "_jacobi_stack", counting)
    return sizes
