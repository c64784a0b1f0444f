"""Deterministic synthetic datasets.

Substitutes for the corpora the surveyed papers evaluate on (DBLP, IMDB,
product catalogs, INEX/XMark XML, query & click logs).  All generators
take an explicit ``seed`` and produce identical output for identical
parameters, which makes every test and benchmark reproducible.

The bibliographic database is the one the server and benchmarks load,
so it alone is re-exported; the other generators are imported from
their modules (:mod:`~repro.datasets.movies`,
:mod:`~repro.datasets.products`, :mod:`~repro.datasets.events`,
:mod:`~repro.datasets.xml_corpora`, :mod:`~repro.datasets.logs`).
"""

from repro.datasets.bibliographic import bibliographic_schema, generate_bibliographic_db

__all__ = [
    "bibliographic_schema",
    "generate_bibliographic_db",
]
