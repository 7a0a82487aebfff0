import dataclasses

import pytest

from tcheb import Design, reduction


@pytest.fixture(autouse=True)
def _empty_caches():
    """Each test starts with no memoised gate entry (verdict and LP
    grid), so test order never decides whether a gate or a grid
    evaluation runs."""
    reduction._gated_psi.cache_clear()


@pytest.fixture
def shifted_solver(monkeypatch):
    """The principal solvers ``reduce_design`` calls, but with the first
    point of each design they return moved +1.0; the list collects the
    designs so returned."""
    shifted = []

    def shifting(real):
        def shift(*args):
            result = real(*args)
            d = result.design
            shifted.append(Design(points=(d.points[0] + 1.0,) + d.points[1:], weights=d.weights, interval=d.interval))
            return dataclasses.replace(result, design=shifted[-1])

        return shift

    for name in ("_represent", "_principal"):
        monkeypatch.setattr(reduction, name, shifting(getattr(reduction, name)))
    return shifted
