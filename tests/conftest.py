"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects ``ci``: examples are derived from each
test's source, not drawn at random, so a failure in CI reproduces from
the commit alone. Tests keep their own ``max_examples``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
