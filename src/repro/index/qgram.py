"""q-gram index for approximate token matching.

Supports the "confusion set" construction of keyword query cleaning
(Pu & Yu, VLDB 08; slide 67): given a possibly misspelled token, find
vocabulary tokens within a small edit distance, using q-gram count
filtering before verifying with a banded edit-distance computation.
"""

from __future__ import annotations

import bisect
import copy
from typing import Dict, Iterable, List, Optional, Set, Tuple


def edit_distance(a: str, b: str, cutoff: Optional[int] = None) -> int:
    """Levenshtein distance; returns ``cutoff + 1`` early when exceeded."""
    if a == b:
        return 0
    if cutoff is not None and abs(len(a) - len(b)) > cutoff:
        return cutoff + 1
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        best = i
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            value = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            current.append(value)
            if value < best:
                best = value
        if cutoff is not None and best > cutoff:
            return cutoff + 1
        previous = current
    return previous[-1]


def qgrams(token: str, q: int) -> List[str]:
    """Positional-free q-grams of *token*, padded with ``#``/``$``."""
    padded = "#" * (q - 1) + token + "$" * (q - 1)
    return [padded[i : i + q] for i in range(len(padded) - q + 1)]


def _gram_counts(token: str, q: int) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for gram in qgrams(token, q):
        counts[gram] = counts.get(gram, 0) + 1
    return counts


class QGramIndex:
    """Map q-grams to the tokens containing them.

    ``candidates`` applies the classic count filter: a token within edit
    distance *k* of the query shares at least
    ``max(len(query), len(token)) + q - 1 - k*q`` q-grams with it.
    """

    def __init__(self, tokens: Iterable[str], q: int = 2):
        if q < 1:
            raise ValueError("q must be >= 1")
        self.q = q
        self._tokens: List[str] = sorted(set(tokens))
        # gram -> [(token, multiplicity)]: the count filter is only valid
        # over q-gram *multisets*, so multiplicities are kept.
        self._index: Dict[str, List[Tuple[str, int]]] = {}
        for token in self._tokens:
            for gram, count in _gram_counts(token, q).items():
                self._index.setdefault(gram, []).append((token, count))

    def with_tokens(self, tokens: Iterable[str]) -> "QGramIndex":
        """A copy that also indexes *tokens*, vocabulary kept sorted.

        Only the posting lists of the new tokens' q-grams are copied;
        the rest are shared, and this index is left as it was.
        """
        patched = copy.copy(self)
        vocabulary = patched._tokens = list(self._tokens)
        index = patched._index = dict(self._index)
        copied: Set[str] = set()
        for token in tokens:
            at = bisect.bisect_left(vocabulary, token)
            if at < len(vocabulary) and vocabulary[at] == token:
                continue
            vocabulary.insert(at, token)
            for gram, count in _gram_counts(token, self.q).items():
                if gram not in copied:
                    copied.add(gram)
                    index[gram] = list(index.get(gram, ()))
                index[gram].append((token, count))
        return patched

    @property
    def vocabulary(self) -> List[str]:
        return list(self._tokens)

    def candidates(self, query: str, max_distance: int = 1) -> List[str]:
        """Tokens possibly within *max_distance* edits (count filter only)."""
        counts: Dict[str, int] = {}
        for gram, qcount in _gram_counts(query, self.q).items():
            for token, tcount in self._index.get(gram, ()):
                counts[token] = counts.get(token, 0) + min(qcount, tcount)
        out = set()
        qlen = len(query)
        for token, shared in counts.items():
            needed = max(qlen, len(token)) + self.q - 1 - max_distance * self.q
            if shared >= needed:
                out.add(token)
        # For very short strings the count threshold drops to <= 0, meaning
        # the filter cannot reject anything: such tokens must be verified
        # even when they share no q-gram with the query.
        limit = max_distance * self.q - self.q + 1
        if qlen <= limit:
            out.update(t for t in self._tokens if len(t) <= limit)
        return sorted(out)

    def lookup(self, query: str, max_distance: int = 1) -> List[Tuple[str, int]]:
        """Verified (token, distance) matches within *max_distance* edits."""
        out = []
        for token in self.candidates(query, max_distance):
            dist = edit_distance(query, token, cutoff=max_distance)
            if dist <= max_distance:
                out.append((token, dist))
        out.sort(key=lambda pair: (pair[1], pair[0]))
        return out

    def __repr__(self) -> str:
        return f"QGramIndex(q={self.q}, {len(self._tokens)} tokens)"
