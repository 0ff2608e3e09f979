"""One hypothesis profile for tier 1: no deadline, and derandomized, so
every run draws the same examples.  Tests set only their `max_examples`.

Each property test also pins its sample with `@seed(...)`.  A
derandomized test draws from a hash of its own source, so without the pin
any edit to its body would silently draw new examples; each pinned seed
is the one that hash gave when the pin was added, so the examples stayed
the same.

A share of draws also comes from the literal constants of every local
module loaded when a test runs, and `plmonster` loads its submodules on
first use, so the pool would depend on which tests ran before.  Every
`plmonster` submodule and every test module is imported here, before the
first test, so a test draws the same examples alone and in the full
session."""

import contextlib
import importlib
import pkgutil
from pathlib import Path

from hypothesis import settings

import plmonster

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

for module in pkgutil.walk_packages(plmonster.__path__, "plmonster."):
    importlib.import_module(module.name)
for path in sorted(Path(__file__).parent.glob("test_*.py")):
    # a module that fails to import is reported when pytest collects it,
    # so a broken library fails the modules that need it, not the session
    with contextlib.suppress(Exception):
        importlib.import_module(path.stem)
