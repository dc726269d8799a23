"""Hypothesis profiles for the suite.

``default`` is Hypothesis's own: every property keeps the example count it
was written with, or Hypothesis's 100 where it names none. Two larger
budgets for CI's deep runs, selected with ``--hypothesis-profile=<name>``
without slowing tier-1:

- ``wire-fuzz``: the codec's properties in tests/test_wire.py, the
  per-class plans and symbol table held to it, and the capture framing
  (tests/test_pcap.py);
- ``kernel-fuzz``: the row-exact scoring kernels' bytes against single-row
  calls and the layer-walking reference
  (tests/test_hotpath.py::TestRowExactKernels) and the score memo's
  properties over them (tests/test_score_memo.py); also the one
  featurizer, ``StreamingEncoder``, against the seed push
  (tests/test_features.py::TestStreamingEncoderEqualsSeedPush). These
  name no ``max_examples`` of their own: an explicit one in ``@settings``
  would override any profile.
"""

from hypothesis import settings

settings.register_profile("wire-fuzz", max_examples=5000, deadline=None)
settings.register_profile("kernel-fuzz", max_examples=2000, deadline=None)
