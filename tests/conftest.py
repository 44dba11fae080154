"""Suite-wide settings.

HYPOTHESIS_PROFILE=ci loads the "ci" profile: examples are derived from
each test's name rather than drawn at random, and no example has a
deadline, so a failing example that CI finds is found again on a rerun.
Without the variable, hypothesis runs with its default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
