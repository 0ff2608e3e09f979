"""One hypothesis profile for tier 1: no deadline, and derandomized, so
every run draws the same examples.  Tests set only their `max_examples`."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
