"""Fixtures shared by the test modules."""

import os

from hypothesis import settings
import pytest

# one BLAS thread, set before any test module imports numpy: OpenBLAS's own
# threads cost more than they give at these sizes, and they multiply with
# the workers of numerics.map_batches
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# the property tests replay the same examples on every run and keep no
# example database, so Tier-1 stays deterministic and its time bounded
settings.register_profile("specloc", derandomize=True, deadline=None, database=None,
                          max_examples=100)
settings.load_profile("specloc")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the rest of the
    test and returns the list that records each call as ``(args, kwargs)``."""

    def wrap(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return wrap
