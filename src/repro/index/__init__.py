"""Indexing substrate for keyword search.

Implements the index families the tutorial surveys (slides 121-128):

* inverted keyword indexes over relational tuples and XML nodes,
* tries for type-ahead / prefix search (TASTIER),
* q-gram indexes for approximate string matching (query cleaning),
* node-to-keyword distance indexes (BLINKS-style),
* hub indexes for proximity search (Goldman et al., VLDB 98),
* δ-step forward indexes and D-reachability indexes.

Re-exported here are the indexes a search engine serves from; the
trie, hub, δ-forward and D-reachability indexes are imported from
their modules.
"""

from repro.index.text import tokenize, normalize_token, term_frequencies
from repro.index.inverted import InvertedIndex, Posting
from repro.index.qgram import QGramIndex
from repro.index.distance import KeywordDistanceIndex, bounded_bfs_distances

__all__ = [
    "tokenize",
    "normalize_token",
    "term_frequencies",
    "InvertedIndex",
    "Posting",
    "QGramIndex",
    "KeywordDistanceIndex",
    "bounded_bfs_distances",
]
