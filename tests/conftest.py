"""Shared test configuration: a reproducible hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), and
no per-example deadline applies, since family construction time grows with N.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
