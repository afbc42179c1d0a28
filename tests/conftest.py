"""Tier-1 hypothesis settings.

Every property test draws a fixed sequence of examples, seeded from the
test itself, so whether tier-1 passes and how long it takes do not depend
on which draws come up.  Each test keeps its own max_examples.
derandomize=True also turns off the example database.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
