"""Hypothesis profiles.

``--hypothesis-profile=deep-ci`` raises every property to 5000
examples, with no deadline.  CI runs it on test_postproc.py, whose FFT
hash rounds differently under each numpy's pocketfft, on each numpy
version it tests.

``--hypothesis-profile=session-ci`` raises every property to 150
examples, with no deadline.  CI runs it on test_scalar_session.py, which
holds the compiled session against the scalar reference (about 40 s),
on each numpy version it tests.

Without an option every test keeps the budget it sets.
"""

from hypothesis import settings

settings.register_profile("deep-ci", max_examples=5000, deadline=None)
settings.register_profile("session-ci", max_examples=150, deadline=None)
