import time

import pytest
from qaharvest.gradsuite import gradient_suite
from qaharvest.numerics import tensor


@pytest.fixture()
def matvec_workers(monkeypatch):
    """Call with n to make ``matvec_rows`` split wide products into n runs,
    on a pool of its own that the test's end shuts down."""
    monkeypatch.setattr(tensor, "_pool", None)
    yield lambda n: monkeypatch.setattr(tensor, "_WORKERS", n)
    if tensor._pool is not None:
        tensor._pool.shutdown()


@pytest.fixture(scope="session")
def gradient_audit():
    """One real gradient audit, the run ``gradcheck`` makes with no
    --seed, shared by every test that reads it: (errors, wall seconds)."""
    t0 = time.perf_counter()
    errors = gradient_suite(0)
    return errors, time.perf_counter() - t0
