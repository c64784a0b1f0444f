"""Quickstart: keyword search over a relational database.

Builds a synthetic DBLP-like database, runs the end-to-end engine
(cleaning -> candidate networks -> top-k) and contrasts the three
algorithm families the tutorial surveys: schema-based (DISCOVER),
graph-based heuristic (BANKS) and exact Steiner trees.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import KeywordSearchEngine
from repro.ambiguity.autocomplete import suggest
from repro.analysis.clouds import refine_terms
from repro.datasets.bibliographic import generate_bibliographic_db


def main() -> None:
    db = generate_bibliographic_db(
        n_authors=60, n_papers=150, n_conferences=8, seed=7
    )
    print(f"database: {db}")
    engine = KeywordSearchEngine(db)

    query = "john database"
    print(f"\n--- schema-based top-5 for {query!r} (DISCOVER-style) ---")
    for result in engine.search(query, k=5):
        print(f"  [{result.score:.3f}] {result.network}")
        print(f"          {result.describe()}")

    print(f"\n--- BANKS backward expansion for {query!r} ---")
    for result in engine.search(query, method="banks", k=3):
        print(f"  [{result.score:.3f}] {result.describe()}")

    print(f"\n--- exact group Steiner tree for {query!r} ---")
    for result in engine.search(query, method="steiner"):
        print(f"  [{result.score:.3f}] {result.network}")
        print(f"          {result.describe()}")

    # A misspelled query is cleaned transparently (Pu & Yu, VLDB 08).
    dirty = "jhon databse"
    parsed = engine.parse(dirty)
    print(f"\n--- query cleaning: {dirty!r} -> {' '.join(parsed.keywords)!r} ---")
    for result in engine.search(dirty, k=3):
        print(f"  [{result.score:.3f}] {result.describe()}")

    print("\n--- type-ahead completions for 'dat' ---")
    print(" ", ", ".join(suggest(engine, "dat")))

    print(f"\n--- refinement terms for 'database' (Tao & Yu) ---")
    for term, weight in refine_terms(engine, "database", k=6):
        print(f"  {term} ({weight:.0f})")


if __name__ == "__main__":
    main()
