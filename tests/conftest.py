"""Shared test settings and fixtures.

Property tests run a fixed, derandomized set of examples with no
per-example deadline, so results repeat from run to run and a slow or
busy machine cannot turn a pass into a timeout.  The ``rasters`` fixture
spies on the search's stage 3 for the tests of both search modules.
"""

import pytest
from hypothesis import settings

from cubemc import search_rounds

settings.register_profile(
    "cubemc", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("cubemc")


@pytest.fixture
def rasters(monkeypatch):
    """A spy on stage 3 (``Searches._stage3``): a list that gets, for each
    call that runs a raster, ``(tables, costed)``, the tables whose raster
    it ran and the ``(i, dx, dy)`` offsets of each ``_cost`` round it made."""
    runs, stage3 = [], search_rounds.Searches._stage3

    def spy(self, ks):
        costed, cost = [], search_rounds.Searches._cost
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search_rounds.Searches, "_cost",
                      lambda s, *a: costed.append(a) or cost(s, *a))
            stage3(self, ks)
        if ks:
            runs.append(([self.tables[k] for k in ks], costed))

    monkeypatch.setattr(search_rounds.Searches, "_stage3", spy)
    return runs
