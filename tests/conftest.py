"""Test-wide settings.

Property tests run derandomized, with no per-example deadline and no
example database, so a run is repeatable and a slow machine cannot fail it.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
