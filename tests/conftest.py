import pytest
from qaharvest.numerics import tensor


@pytest.fixture()
def matvec_workers(monkeypatch):
    """Call with n to make ``matvec_rows`` split wide products into n runs,
    on a pool of its own that the test's end shuts down."""
    monkeypatch.setattr(tensor, "_pool", None)
    yield lambda n: monkeypatch.setattr(tensor, "_WORKERS", n)
    if tensor._pool is not None:
        tensor._pool.shutdown()
