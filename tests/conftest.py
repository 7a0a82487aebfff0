import pytest

from tcheb import reduction


@pytest.fixture(autouse=True)
def _empty_gate_cache():
    """Each test starts with no memoised gate verdicts, so test order
    never decides whether a determinant gate runs."""
    reduction._gated_psi.cache_clear()
