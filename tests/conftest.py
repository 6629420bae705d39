"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no
per-example deadline, so results repeat from run to run and a slow or
busy machine cannot turn a pass into a timeout.
"""

from hypothesis import settings

settings.register_profile(
    "cubemc", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("cubemc")
