"""Result differentiation (Liu, Sun & Chen, VLDB 09; slides 149-153).

Users comparing multiple relevant results need a *comparison table*:
for each result, a concise feature set (bounded by a user budget) that
maximises the **Degree of Difference** (DoD) across results while still
summarising them.  Generating the optimal table is NP-hard (slide 153);
the paper defines weak/strong local optimality and gives efficient
algorithms — we implement the greedy single-swap algorithm (weak local
optimality; ``deep=True`` adds pair swaps, the strong variant's spirit)
plus the top-frequency and random baselines E10 compares against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: A feature is a (type, value) pair, e.g. ("paper:title", "olap").
Feature = Tuple[str, str]


@dataclass
class FeatureSet:
    """One result's full feature set and its current selection."""

    result_id: object
    features: FrozenSet[Feature]
    selected: Set[Feature]

    @classmethod
    def of(cls, result_id: object, features: Sequence[Feature]) -> "FeatureSet":
        return cls(result_id, frozenset(features), set())


def degree_of_difference(selections: Sequence[Set[Feature]]) -> int:
    """DoD: summed symmetric difference over all result pairs (slide 152)."""
    total = 0
    n = len(selections)
    for i in range(n):
        for j in range(i + 1, n):
            total += len(selections[i] ^ selections[j])
    return total


def _current_dod(sets: Sequence[FeatureSet]) -> int:
    return degree_of_difference([fs.selected for fs in sets])


def select_features_top_frequency(
    sets: Sequence[FeatureSet], budget: int
) -> List[FeatureSet]:
    """Baseline: per result, its most frequent feature types' values.

    (Features are unweighted here, so "frequency" is global: pick the
    features appearing in the most results — a summarising but poorly
    differentiating choice.)
    """
    counts: Dict[Feature, int] = {}
    for fs in sets:
        for feature in fs.features:
            counts[feature] = counts.get(feature, 0) + 1
    for fs in sets:
        ranked = sorted(fs.features, key=lambda f: (-counts[f], f))
        fs.selected = set(ranked[:budget])
    return list(sets)


def select_features_random(
    sets: Sequence[FeatureSet], budget: int, seed: int = 0
) -> List[FeatureSet]:
    rng = random.Random(seed)
    for fs in sets:
        pool = sorted(fs.features)
        rng.shuffle(pool)
        fs.selected = set(pool[:budget])
    return list(sets)


def select_features_greedy(
    sets: Sequence[FeatureSet],
    budget: int,
    deep: bool = False,
    max_rounds: int = 20,
) -> List[FeatureSet]:
    """Local-search DoD maximisation.

    Starts from the top-frequency table and repeatedly applies the best
    improving *single-feature swap* in some result (weak local
    optimality: no single swap improves).  With ``deep=True`` it also
    tries *pair* swaps within one result before giving up, approximating
    strong local optimality.
    """
    select_features_top_frequency(sets, budget)
    for _ in range(max_rounds):
        improved = _best_single_swap(sets)
        if not improved and deep:
            improved = _best_pair_swap(sets)
        if not improved:
            break
    return list(sets)


def _best_single_swap(sets: Sequence[FeatureSet]) -> bool:
    base = _current_dod(sets)
    best_gain = 0
    best_move: Optional[Tuple[FeatureSet, Feature, Feature]] = None
    for fs in sets:
        unselected = sorted(fs.features - fs.selected)
        for out_feature in sorted(fs.selected):
            for in_feature in unselected:
                fs.selected.remove(out_feature)
                fs.selected.add(in_feature)
                gain = _current_dod(sets) - base
                fs.selected.remove(in_feature)
                fs.selected.add(out_feature)
                if gain > best_gain:
                    best_gain = gain
                    best_move = (fs, out_feature, in_feature)
    if best_move is None:
        return False
    fs, out_feature, in_feature = best_move
    fs.selected.remove(out_feature)
    fs.selected.add(in_feature)
    return True


def _best_pair_swap(sets: Sequence[FeatureSet]) -> bool:
    base = _current_dod(sets)
    for fs in sets:
        selected = sorted(fs.selected)
        unselected = sorted(fs.features - fs.selected)
        if len(selected) < 2 or len(unselected) < 2:
            continue
        for i in range(len(selected)):
            for j in range(i + 1, len(selected)):
                for a in range(len(unselected)):
                    for b in range(a + 1, len(unselected)):
                        outs = {selected[i], selected[j]}
                        ins = {unselected[a], unselected[b]}
                        fs.selected -= outs
                        fs.selected |= ins
                        gain = _current_dod(sets) - base
                        if gain > 0:
                            return True
                        fs.selected -= ins
                        fs.selected |= outs
    return False


def comparison_table(sets: Sequence[FeatureSet]) -> Dict[object, List[Feature]]:
    """The final table: result id -> sorted selected features."""
    return {fs.result_id: sorted(fs.selected) for fs in sets}


def differentiate(results: Sequence, budget: int = 3) -> Dict[object, List[Feature]]:
    """Comparison table across search results (slides 149-153).

    Each result's features are the non-null text-column values of its
    rows, typed ``"table:column"``; the greedy swap selects *budget* of
    them per result.  Keyed by the result's position.
    """
    sets = []
    for i, result in enumerate(results):
        features = []
        for row in result.joined.distinct_rows():
            for column in row.table.schema.text_columns:
                value = row[column]
                if value is not None:
                    features.append((f"{row.table.name}:{column}", str(value)))
        sets.append(FeatureSet.of(i, features))
    select_features_greedy(sets, budget=budget)
    return comparison_table(sets)
