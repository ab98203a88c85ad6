"""Hypothesis profiles.

``--hypothesis-profile=replay-ci`` raises the bulk-draw replay
properties of test_replay.py to 5000 examples each, with no deadline.
Their layout depends on numpy's PCG64 stream, so CI runs it on both
numpy versions it tests.  Without the option every test keeps the
budget it sets.
"""

from hypothesis import settings

settings.register_profile("replay-ci", max_examples=5000, deadline=None)
