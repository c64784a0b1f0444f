"""Noisy-channel spelling correction (slide 66).

The intended query C passes through a noisy channel and is observed as
Q; correction maximises  P(C | Q) ∝ P(Q | C) · P(C):

* error model   P(Q | C) = lambda ** edit_distance(Q, C) — each edit
  operation costs a constant factor,
* prior         P(C)     = smoothed corpus frequency of C.

Confusion sets come from the q-gram index (slide 67's Variants(k)).
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.index.qgram import QGramIndex, edit_distance


class NoisyChannelCorrector:
    """Per-token corrector over a weighted vocabulary."""

    def __init__(
        self,
        frequencies: Dict[str, int],
        max_distance: int = 2,
        error_lambda: float = 0.01,
        q: int = 2,
    ):
        # error_lambda is deliberately harsh (100x per edit): during
        # segmentation-based cleaning the language model rewards merging
        # co-occurring tokens, and a weak channel would let that reward
        # overwrite tokens the user typed correctly.
        if not 0 < error_lambda < 1:
            raise ValueError("error_lambda must be in (0, 1)")
        self.frequencies = dict(frequencies)
        self._mass = sum(self.frequencies.values())
        self.total = self._mass or 1
        self.max_distance = max_distance
        self.error_lambda = error_lambda
        self._qgrams = QGramIndex(self.frequencies, q=q)

    def updated(self, frequencies: Dict[str, int]) -> "NoisyChannelCorrector":
        """A copy with *frequencies* over this one's: a token the
        vocabulary lacks joins it and the q-gram index, and the total
        moves by the difference — integer sums, so the copy equals a
        corrector built from the merged map.  Unchanged q-gram posting
        lists are shared; this corrector is left as it was."""
        patched = copy.copy(self)
        merged = patched.frequencies = dict(self.frequencies)
        new = [token for token in frequencies if token not in merged]
        for token, freq in frequencies.items():
            patched._mass += freq - merged.get(token, 0)
            merged[token] = freq
        patched.total = patched._mass or 1
        if new:
            patched._qgrams = self._qgrams.with_tokens(new)
        return patched

    # ------------------------------------------------------------------
    # Model components
    # ------------------------------------------------------------------
    def prior(self, token: str) -> float:
        """Smoothed P(C): (freq + 1) / (total + V + 1).

        The extra +1 in the denominator reserves probability mass for a
        single pseudo-token covering all unseen corrections, keeping the
        distribution proper when ``token`` is out of vocabulary.  Pinned
        by ``test_query.py::test_noisy_channel_prior_formula`` — do not
        change the arithmetic without re-ranking the corrector fixtures.
        """
        return (self.frequencies.get(token, 0) + 1) / (
            self.total + len(self.frequencies) + 1
        )

    def error_probability(self, observed: str, intended: str) -> float:
        """P(Q | C) = lambda^edit_distance."""
        dist = edit_distance(observed, intended, cutoff=self.max_distance)
        if dist > self.max_distance:
            return 0.0
        return self.error_lambda ** dist

    def score(self, observed: str, intended: str) -> float:
        return self.error_probability(observed, intended) * self.prior(intended)

    # ------------------------------------------------------------------
    # Correction
    # ------------------------------------------------------------------
    def confusion_set(self, token: str) -> List[str]:
        """Variants(k): vocabulary tokens within the edit budget."""
        matches = self._qgrams.lookup(token, max_distance=self.max_distance)
        out = [t for t, _ in matches]
        if token not in out and token in self.frequencies:
            out.append(token)
        return sorted(out)

    def candidates(self, token: str, limit: int = 5) -> List[Tuple[str, float]]:
        """Scored corrections, best first."""
        scored = [
            (variant, self.score(token, variant))
            for variant in self.confusion_set(token)
        ]
        scored = [(t, s) for t, s in scored if s > 0]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:limit]

    def correct(self, token: str) -> str:
        """Best correction (the token itself when nothing beats it)."""
        ranked = self.candidates(token, limit=1)
        return ranked[0][0] if ranked else token
