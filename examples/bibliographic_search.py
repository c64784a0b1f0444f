"""A SPARK-demo-style search session (tutorial slides 19-21).

The user looks for join papers by David DeWitt, starts with a typo,
refines after seeing results, compares candidates side by side, and
finally gets ranked query forms for structured follow-up — the whole
slide-19/20/21 interaction replayed against the library.

Run:  python examples/bibliographic_search.py
"""

from __future__ import annotations

from repro import KeywordSearchEngine
from repro.analysis.differentiation import differentiate
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.forms.generation import generate_forms, generate_skeletons
from repro.forms.matching import FormIndex, group_forms, rank_forms
from repro.relational.schema_graph import SchemaGraph
from repro.schema_search.candidate_networks import generate_candidate_networks
from repro.schema_search.spark import skyline_sweep
from repro.schema_search.tuple_sets import TupleSets


def main() -> None:
    db = tiny_bibliographic_db()
    engine = KeywordSearchEngine(db)

    # Step 1: the user types a misspelled query (slide 19: 'david'
    # turns out to be 'david J. Dewitt').
    raw = "dewit join"
    parsed = engine.parse(raw)
    print(f"user types : {raw!r}")
    print(f"cleaned to : {' '.join(parsed.keywords)!r}")

    # Step 2: top-k results with the SPARK (virtual document) score.
    keywords = list(parsed.keywords)
    tuple_sets = TupleSets(db, engine.index, keywords)
    cns = generate_candidate_networks(engine.schema_graph, tuple_sets, max_size=4)
    print(f"\ncandidate networks ({len(cns)}):")
    for cn in cns:
        print(f"  {cn.label()}")
    print("\nSPARK top-5 (skyline sweep):")
    for score, joined in skyline_sweep(cns, tuple_sets, engine.index, keywords, k=5):
        parts = " | ".join(
            f"{row.table.name}:{row.text()[:35]}" for row in joined.distinct_rows()
        )
        print(f"  [{score:.3f}] {parts}")

    # Step 3: compare several relevant results (slide 20: the user only
    # wants the join papers written by DeWitt, not the 4th result).
    results = engine.search("dewitt join", k=4)
    print("\ncomparison table (result differentiation):")
    table = differentiate(results, budget=2)
    for result_id, features in table.items():
        label = results[result_id].network
        print(f"  result {result_id} ({label}):")
        for feature_type, value in features:
            print(f"      {feature_type} = {value}")

    # Step 4: hand the user query forms for a precise follow-up
    # (Chu et al., SIGMOD 09).
    skeletons = generate_skeletons(engine.schema_graph, max_size=3)
    forms = generate_forms(db.schema, skeletons, with_query_classes=True)
    form_index = FormIndex(forms, engine.index)
    ranked = rank_forms(form_index, ["dewitt", "join"], k=8)
    print(f"\ntop query forms for 'dewitt join' ({len(ranked)} shown, grouped):")
    for skeleton_label, by_class in group_forms(ranked).items():
        print(f"  skeleton {skeleton_label}:")
        for query_class, class_forms in by_class.items():
            print(f"      [{query_class}] x{len(class_forms)}")


if __name__ == "__main__":
    main()
