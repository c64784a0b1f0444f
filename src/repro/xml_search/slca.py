"""SLCA computation (Xu & Papakonstantinou, SIGMOD 05; Sun et al., WWW 07).

The Smallest LCAs of keyword match lists S1..Sk are the LCA nodes that
have no descendant which is itself an LCA of matches — "min redundancy"
(slide 33).  Three algorithms with one contract:

* ``slca_bruteforce``     — all-combination LCAs then prune (exponential;
                            test oracle only),
* ``slca_scan_eager``     — pointer scan through every list,
                            O(k·d·|Smax|),
* ``slca_indexed_lookup_eager`` — binary-search lookups anchored on the
                            smallest list, O(k·d·|Smin|·log|Smax|),
* ``slca_multiway``       — anchor-skipping variant of ILE that jumps
                            over matches already covered by the last
                            candidate (Multiway-SLCA's skip_after idea).

All take Dewey lists (sorted, as produced by
:class:`repro.xmltree.index.XmlKeywordIndex`) and return SLCA Dewey
labels in document order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import product
from typing import Dict, List, Optional, Sequence

from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.xmltree.index import XmlKeywordIndex
from repro.xmltree.node import (
    Dewey,
    common_prefix,
    is_ancestor,
    is_ancestor_or_self,
    lca_dewey,
)


def _dedup_keep_deepest(candidates: List[Dewey]) -> List[Dewey]:
    """Drop candidates that are proper ancestors of other candidates."""
    unique = sorted(set(candidates))
    out: List[Dewey] = []
    # Sorted in document order: an ancestor immediately precedes its
    # descendants, so a single forward pass with a pending slot suffices.
    pending: Optional[Dewey] = None
    for cand in unique:
        if pending is not None:
            if is_ancestor(pending, cand):
                pending = cand
            else:
                out.append(pending)
                pending = cand
        else:
            pending = cand
    if pending is not None:
        out.append(pending)
    return out


def _confirmed(candidates: List[Dewey], upcoming: Sequence[Dewey]) -> List[Dewey]:
    """The SLCAs among *candidates* of a scan a budget may have stopped.

    Candidates arrive in document order, so every one but the last is
    settled; the last stands only if none of the *upcoming* matches (the
    next unscanned one per list) lies under it — such a match could
    still have produced a smaller LCA below it.
    """
    out = _dedup_keep_deepest(candidates)
    if out and any(is_ancestor_or_self(out[-1], m) for m in upcoming):
        out.pop()
    return out


def contains_all(lists: Sequence[List[Dewey]], node: Dewey) -> bool:
    """True iff the subtree rooted at *node* has a match from every list."""
    for deweys in lists:
        pos = bisect_left(deweys, node)
        if pos < len(deweys) and node == deweys[pos][: len(node)]:
            continue
        return False
    return True


def subtree_matches(deweys: List[Dewey], node: Dewey) -> List[Dewey]:
    """Matches of one list inside the subtree of *node*."""
    lo = bisect_left(deweys, node)
    hi = bisect_right(deweys, node + (float("inf"),))  # type: ignore[operator]
    return [d for d in deweys[lo:hi] if d[: len(node)] == node]


def lca_candidates(lists: Sequence[List[Dewey]]) -> List[Dewey]:
    """All-combination LCAs (the raw ?LCA space of slide 32).

    Exponential in the number of keywords — intended as a correctness
    oracle on small inputs.
    """
    if not lists or any(not lst for lst in lists):
        return []
    out = {lca_dewey(combo) for combo in product(*lists)}
    return sorted(out)


def slca_bruteforce(lists: Sequence[List[Dewey]]) -> List[Dewey]:
    """Test oracle: enumerate all LCAs, keep the minimal (deepest) ones."""
    return _dedup_keep_deepest(lca_candidates(list(lists)))


def _anchor_candidate(
    anchor: Dewey, other_lists: Sequence[List[Dewey]]
) -> Optional[Dewey]:
    """LCA of *anchor* with its closest match in every other list."""
    acc = anchor
    for deweys in other_lists:
        if not deweys:
            return None
        closest = XmlKeywordIndex.closest_match(deweys, anchor)
        if closest is None:
            return None
        acc = common_prefix(acc, closest)
    return acc


def slca_indexed_lookup_eager(
    lists: Sequence[List[Dewey]],
    budget: Optional[QueryBudget] = None,
    span=None,
) -> List[Dewey]:
    """XKSearch ILE: anchor on the smallest list, binary-search the rest.

    An exhausted *budget* stops the anchor scan early; the SLCAs the
    anchors processed so far settle are returned (a sound partial
    answer, see :func:`_confirmed`).

    *span* (a tracing span, see :mod:`repro.obs.trace`) receives the
    ``anchors_scanned`` / ``candidates`` work counters; the computation
    itself is untouched.
    """
    lists = [lst for lst in lists]
    if not lists or any(not lst for lst in lists):
        return []
    smallest_idx = min(range(len(lists)), key=lambda i: len(lists[i]))
    anchors = lists[smallest_idx]
    others = [lst for i, lst in enumerate(lists) if i != smallest_idx]
    candidates: List[Dewey] = []
    scanned = 0
    try:
        for anchor in anchors:
            if budget is not None:
                budget.tick_candidates()
            scanned += 1
            cand = _anchor_candidate(anchor, others)
            if cand is not None:
                candidates.append(cand)
    except BudgetExceededError:
        pass
    if span is not None:
        span.add("anchors_scanned", scanned)
        span.add("candidates", len(candidates))
    return _confirmed(candidates, anchors[scanned : scanned + 1])


def slca_scan_eager(
    lists: Sequence[List[Dewey]],
    budget: Optional[QueryBudget] = None,
) -> List[Dewey]:
    """Pointer-scan variant: same anchors, linear pointer advances.

    Equivalent output to ILE; the cost model differs (every list is
    walked fully — O(k·|Smax|) pointer moves), which is what the E5
    benchmark contrasts against the binary-search lookups of ILE.
    """
    lists = [lst for lst in lists]
    if not lists or any(not lst for lst in lists):
        return []
    smallest_idx = min(range(len(lists)), key=lambda i: len(lists[i]))
    anchors = lists[smallest_idx]
    others = [lst for i, lst in enumerate(lists) if i != smallest_idx]
    pointers = [0] * len(others)
    candidates: List[Dewey] = []
    for anchor in anchors:
        if budget is not None:
            try:
                budget.tick_candidates()
            except BudgetExceededError:
                break
        acc = anchor
        for i, deweys in enumerate(others):
            # advance pointer to the first element >= anchor
            p = pointers[i]
            while p < len(deweys) and deweys[p] < anchor:
                p += 1
            pointers[i] = p
            left = deweys[p - 1] if p > 0 else None
            right = deweys[p] if p < len(deweys) else None
            if left is None and right is None:
                return _dedup_keep_deepest(candidates)
            if left is None:
                closest = right
            elif right is None:
                closest = left
            else:
                closest = (
                    left
                    if len(common_prefix(left, anchor))
                    >= len(common_prefix(right, anchor))
                    else right
                )
            acc = common_prefix(acc, closest)  # type: ignore[arg-type]
        candidates.append(acc)
    scanned = len(candidates)
    return _confirmed(candidates, anchors[scanned : scanned + 1])


def slca_multiway(
    lists: Sequence[List[Dewey]],
    budget: Optional[QueryBudget] = None,
    span=None,
) -> List[Dewey]:
    """Basic Multiway-SLCA (Sun et al., WWW 07; slide 139).

    Instead of anchoring on every element of the smallest list, each
    round picks the *maximum* current head across all lists as the
    anchor (no SLCA can involve a skipped smaller node exclusively),
    computes the candidate from closest matches, then ``skip_after``
    advances every cursor past the anchor.  Each round advances at least
    one cursor, so the number of rounds is bounded by the total matches
    but is in practice far smaller than |Smin| when matches cluster.
    """
    lists = [lst for lst in lists]
    if not lists or any(not lst for lst in lists):
        return []
    cursors = [0] * len(lists)
    candidates: List[Dewey] = []
    rounds = 0
    try:
        while all(c < len(lst) for c, lst in zip(cursors, lists)):
            if budget is not None:
                try:
                    budget.tick_candidates()
                except BudgetExceededError:
                    heads = [lst[c] for c, lst in zip(cursors, lists)]
                    return _confirmed(candidates, heads)
            rounds += 1
            anchor = max(lst[c] for c, lst in zip(cursors, lists))
            acc = anchor
            for deweys in lists:
                closest = XmlKeywordIndex.closest_match(deweys, anchor)
                if closest is None:
                    return _dedup_keep_deepest(candidates)
                acc = common_prefix(acc, closest)
            candidates.append(acc)
            for i, deweys in enumerate(lists):
                cursors[i] = bisect_right(deweys, anchor)
        return _dedup_keep_deepest(candidates)
    finally:
        if span is not None:
            span.add("rounds", rounds)
            span.add("candidates", len(candidates))
