import pytest

from upb3q import linalg


@pytest.fixture
def solver_calls(monkeypatch):
    """Stack size of every internal Jacobi solve made while the test runs."""
    sizes = []
    inner = linalg._jacobi_stack

    def counting(mats, *args):
        sizes.append(len(mats))
        return inner(mats, *args)

    monkeypatch.setattr(linalg, "_jacobi_stack", counting)
    return sizes
