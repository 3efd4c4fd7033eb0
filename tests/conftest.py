"""Test-session settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's source, not drawn at random, so a run on a loaded
machine replays the same cases, and no per-example deadline applies.

On a failure, hypothesis's pytest plugin imports its patch writer, and
that first import raises a ``DeprecationWarning`` from a dependency
(``libcst`` on ``mypy_extensions.TypedDict``).  Under ``-W error`` this
ended the run in an internal error that hid the falsifying example, so the
module is imported here once with that one warning category ignored; every
other warning still fails the run.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("hammid", derandomize=True, deadline=None, database=None)
settings.load_profile("hammid")
