import pytest

from tcheb import principal, reduction


@pytest.fixture(autouse=True)
def _empty_caches():
    """Each test starts with no memoised gate verdicts and no memoised LP
    grids, so test order never decides whether a gate or a grid
    evaluation runs."""
    reduction._gated_psi.cache_clear()
    principal._lp_grid.cache_clear()
