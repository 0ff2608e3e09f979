"""One hypothesis profile for tier 1: no deadline, and derandomized, so
every run draws the same examples.  Tests set only their `max_examples`.

Each property test also pins its sample with `@seed(...)`.  A
derandomized test draws from a hash of its own source, so without the pin
any edit to its body would silently draw new examples; each pinned seed
is the one that hash gave when the pin was added, so the examples stayed
the same.  A small share of draws still come from the literal constants
of the local modules loaded when a test runs, so a session that loads
other modules (one test file alone, say) can draw other examples."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
