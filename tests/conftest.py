import pytest

from tcheb import reduction


@pytest.fixture(autouse=True)
def _empty_caches():
    """Each test starts with no memoised gate entry (verdict and LP
    grid), so test order never decides whether a gate or a grid
    evaluation runs."""
    reduction._gated_psi.cache_clear()
