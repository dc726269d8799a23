"""Hypothesis profiles for the suite.

``default`` is Hypothesis's own: every property keeps the example count it
was written with. ``wire-fuzz`` is what CI's wire-fuzz step selects
(``--hypothesis-profile=wire-fuzz``) to give the codec's properties in
tests/test_wire.py a larger budget without slowing tier-1.
"""

from hypothesis import settings

settings.register_profile("wire-fuzz", max_examples=5000, deadline=None)
