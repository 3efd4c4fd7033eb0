"""Test-session settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's source, not drawn at random, so a run on a loaded
machine replays the same cases, and no per-example deadline applies.
"""

from hypothesis import settings

settings.register_profile("hammid", derandomize=True, deadline=None, database=None)
settings.load_profile("hammid")
