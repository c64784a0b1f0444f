"""Keyword-ambiguity handling (tutorial slides 65-102).

* spelling correction with a noisy-channel model (slide 66),
* keyword query cleaning with segmentation DP (Pu & Yu, VLDB 08) and
  the XClean non-empty-result guarantee (Lu+ ICDE 11),
* TASTIER type-ahead search (Li+ SIGMOD 09),
* Keyword++ differential-query-pair rewriting (Xin+ VLDB 10),
* synonym discovery from click logs (Cheng+ ICDE 10) and from data only
  (Nambiar & Kambhampati, ICDE 06).

Only the cleaner (and the corrector it uses) serves queries, so only
they are re-exported here; import the other techniques from their
modules (:mod:`~repro.ambiguity.autocomplete`,
:mod:`~repro.ambiguity.rewriting`, :mod:`~repro.ambiguity.iqp`,
:mod:`~repro.ambiguity.synonyms`).
"""

from repro.ambiguity.spelling import NoisyChannelCorrector
from repro.ambiguity.cleaning import QueryCleaner, CleaningResult, Segment

__all__ = [
    "NoisyChannelCorrector",
    "QueryCleaner",
    "CleaningResult",
    "Segment",
]
