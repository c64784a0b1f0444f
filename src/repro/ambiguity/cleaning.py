"""Keyword query cleaning (Pu & Yu, VLDB 08; Lu et al., ICDE 11).

Slides 67-70.  A raw query is cleaned in two coupled steps:

1. every token gets a *confusion set* of spelling variants (noisy
   channel over the database vocabulary);
2. the token sequence is *segmented*: consecutive tokens are grouped
   into segments, each of which must be "backed up by tuples in the DB"
   (its cleaned tokens co-occur in one tuple), and the segmentation +
   variant choice maximising the product of segment probabilities is
   found by dynamic programming over positions (slide 68).

A per-segment penalty implements "prevent fragmentation": a single
well-supported segment beats two fragments.  ``require_nonempty=True``
gives the XClean guarantee (slide 70): every emitted segment has
matching tuples, so the cleaned query cannot be empty; XClean's second
fix (not being biased towards rare tokens) corresponds to mixing the
language model with add-one smoothing over co-occurrence support rather
than raw token rarity.
"""

from __future__ import annotations

import copy
import itertools
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ambiguity.spelling import NoisyChannelCorrector
from repro.index.inverted import InvertedIndex
from repro.relational.database import TupleId


@dataclass(frozen=True)
class Segment:
    """A cleaned segment: original tokens, chosen variants, support."""

    raw: Tuple[str, ...]
    cleaned: Tuple[str, ...]
    support: int
    probability: float


@dataclass(frozen=True)
class CleaningResult:
    segments: Tuple[Segment, ...]
    probability: float

    def cleaned_tokens(self) -> List[str]:
        out: List[str] = []
        for segment in self.segments:
            out.extend(segment.cleaned)
        return out


class QueryCleaner:
    """Segmentation-aware query cleaning over one database index."""

    def __init__(
        self,
        index: InvertedIndex,
        max_distance: int = 2,
        max_span: int = 3,
        segment_penalty: float = 0.4,
        variants_per_token: int = 4,
        require_nonempty: bool = False,
    ):
        self.index = index
        self.max_span = max_span
        self.segment_penalty = segment_penalty
        self.variants_per_token = variants_per_token
        self.require_nonempty = require_nonempty
        # Read before any statistic: rows past it are what refreshed()
        # re-reads, so a row indexed mid-build is re-read, never skipped.
        self.watermark = index.watermark
        frequencies = {
            token: index.document_frequency(token) for token in index.vocabulary
        }
        self.corrector = NoisyChannelCorrector(
            frequencies, max_distance=max_distance
        )

    def refreshed(self) -> "QueryCleaner":
        """This cleaner, or a patched copy once the index has absorbed
        rows past its watermark.

        The data model is insert-only, so only tokens of those rows can
        have a new document frequency: each is re-read, a token the
        vocabulary lacked joins it, and the corrector's total moves by
        the difference (:meth:`NoisyChannelCorrector.updated`).  The
        index's watermark is read first, so a row it absorbs meanwhile
        lies past the copy's watermark and the next call re-reads it.
        This cleaner is left as it was.
        """
        index = self.index
        mark = index.watermark
        if mark is self.watermark:
            return self
        tokens = set()
        for table, end in mark.items():
            for rowid in range(self.watermark.get(table, 0), end):
                tokens.update(index.tokens_of(TupleId(table, rowid)))
        patched = copy.copy(self)
        patched.watermark = mark
        patched.corrector = self.corrector.updated(
            {token: index.document_frequency(token) for token in tokens}
        )
        return patched

    # ------------------------------------------------------------------
    # Segment scoring
    # ------------------------------------------------------------------
    def _variant_candidates(self, token: str) -> List[Tuple[str, float]]:
        ranked = self.corrector.candidates(token, limit=self.variants_per_token)
        if not ranked:
            # Unknown token with no close variant: keep it verbatim with a
            # tiny channel probability so cleaning degrades gracefully.
            return [(token, 1e-9)]
        return ranked

    def _segment_support(self, cleaned: Sequence[str]) -> int:
        return len(self.index.tuples_matching_all(cleaned))

    def best_segment(self, raw: Sequence[str]) -> Optional[Segment]:
        """Best variant assignment for one contiguous span."""
        candidate_lists = [self._variant_candidates(t) for t in raw]
        best: Optional[Segment] = None
        for combo in itertools.product(*candidate_lists):
            cleaned = tuple(sys.intern(variant) for variant, _ in combo)
            channel = 1.0
            for _, score in combo:
                channel *= score
            support = self._segment_support(cleaned)
            if self.require_nonempty and support == 0:
                continue
            # Language model: add-one smoothed co-occurrence support.
            lm = (support + 1) / (self.index.document_count + 1)
            probability = channel * lm
            if best is None or probability > best.probability:
                best = Segment(tuple(raw), cleaned, support, probability)
        return best

    # ------------------------------------------------------------------
    # Segmentation DP (slide 68, bottom-up)
    # ------------------------------------------------------------------
    def clean(self, raw_tokens: Sequence[str]) -> CleaningResult:
        # Interned once here: cleaned tokens become cache keys, tuple-set
        # keywords and scoring probes downstream, all sharing one object
        # with the index-side vocabulary.
        tokens = [sys.intern(t.lower()) for t in raw_tokens if t]
        n = len(tokens)
        if n == 0:
            return CleaningResult((), 1.0)
        best_prob: List[float] = [0.0] * (n + 1)
        best_prob[0] = 1.0
        best_split: List[Optional[Tuple[int, Segment]]] = [None] * (n + 1)
        for end in range(1, n + 1):
            for start in range(max(0, end - self.max_span), end):
                if best_prob[start] == 0.0:
                    continue
                segment = self.best_segment(tokens[start:end])
                if segment is None:
                    continue
                prob = best_prob[start] * segment.probability * self.segment_penalty
                if prob > best_prob[end]:
                    best_prob[end] = prob
                    best_split[end] = (start, segment)
        if best_prob[n] == 0.0:
            # No valid segmentation (only possible with require_nonempty):
            # fall back to per-token best corrections without the guarantee.
            segments = []
            prob = 1.0
            for token in tokens:
                variant, score = self._variant_candidates(token)[0]
                support = self._segment_support([variant])
                segments.append(Segment((token,), (variant,), support, score))
                prob *= score
            return CleaningResult(tuple(segments), prob)
        segments_rev: List[Segment] = []
        pos = n
        while pos > 0:
            start, segment = best_split[pos]  # type: ignore[misc]
            segments_rev.append(segment)
            pos = start
        return CleaningResult(tuple(reversed(segments_rev)), best_prob[n])
