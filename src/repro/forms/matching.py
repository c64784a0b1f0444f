"""Online keyword -> form selection (Chu et al., SIGMOD 09; slides 57-58).

Each form becomes a small *document* of schema terms (table names,
attribute names) plus the data terms its attributes can bind (drawn from
the inverted index).  The incoming keyword query is expanded by
replacing data keywords with the schema terms of the attributes that
contain them (slide 57: "John, XML" also generates "Author, XML",
"John, paper", "Author, paper"); all expansions are evaluated under AND
semantics and the union of matching forms is ranked with TF·IDF, then
grouped two-level: by skeleton, then by query class (slide 58).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.forms.generation import generate_forms, generate_skeletons
from repro.forms.model import QueryForm
from repro.index.inverted import InvertedIndex


class FormIndex:
    """IR-style index over a form collection."""

    def __init__(self, forms: Sequence[QueryForm], index: InvertedIndex):
        self.forms = list(forms)
        self.index = index
        # form id -> term multiset (schema terms only; data terms are
        # resolved through the inverted index at query time).
        self._form_terms: List[Dict[str, int]] = []
        self._df: Dict[str, int] = {}
        for form in self.forms:
            counts: Dict[str, int] = {}
            for term in form.schema_terms():
                counts[term] = counts.get(term, 0) + 1
            self._form_terms.append(counts)
            for term in counts:
                self._df[term] = self._df.get(term, 0) + 1

    # ------------------------------------------------------------------
    def _attributes_containing(self, keyword: str) -> Set[Tuple[str, str]]:
        """(table, attribute) pairs whose data contains *keyword*."""
        out: Set[Tuple[str, str]] = set()
        for posting in self.index.postings(keyword):
            out.add((posting.tid.table, posting.column))
        return out

    def expand_query(self, keywords: Sequence[str]) -> List[List[str]]:
        """All schema-term replacements of the query (slide 57)."""
        options: List[List[str]] = []
        for keyword in keywords:
            keyword = keyword.lower()
            variants = [keyword]
            for table, attribute in sorted(self._attributes_containing(keyword)):
                variants.append(table)
                variants.append(attribute)
            options.append(list(dict.fromkeys(variants)))
        expansions: List[List[str]] = [[]]
        for variants in options:
            expansions = [prior + [v] for prior in expansions for v in variants]
        # Deduplicate preserving order.
        seen = set()
        unique = []
        for expansion in expansions:
            key = tuple(expansion)
            if key not in seen:
                seen.add(key)
                unique.append(expansion)
        return unique

    def _form_matches(self, form_idx: int, terms: Sequence[str]) -> bool:
        """AND semantics: every term is a schema term of the form or a
        data term bindable by one of the form's slots."""
        form = self.forms[form_idx]
        schema_terms = self._form_terms[form_idx]
        slot_attrs = {(s.table, s.attribute) for s in form.slots}
        for term in terms:
            if term in schema_terms:
                continue
            if self._attributes_containing(term) & slot_attrs:
                continue
            return False
        return True

    def _idf(self, term: str) -> float:
        df = self._df.get(term, 0)
        return math.log((len(self.forms) + 1) / (df + 1)) + 1.0

    def _score(self, form_idx: int, keywords: Sequence[str]) -> float:
        """TF·IDF of the schema terms the query touches, with a
        compactness prior (smaller skeletons first, as UIs prefer)."""
        counts = self._form_terms[form_idx]
        score = 0.0
        for keyword in keywords:
            for term in [keyword, *(
                t
                for table_attr in self._attributes_containing(keyword)
                for t in table_attr
            )]:
                tf = counts.get(term, 0)
                if tf:
                    score += (1 + math.log(tf)) * self._idf(term)
        size = self.forms[form_idx].skeleton.size
        return score / (1.0 + math.log1p(size))


def rank_forms(
    form_index: FormIndex,
    keywords: Sequence[str],
    k: Optional[int] = 10,
) -> List[Tuple[QueryForm, float]]:
    """Union of forms matching any query expansion, ranked by score."""
    keywords = [kw.lower() for kw in keywords]
    matched: Set[int] = set()
    for expansion in form_index.expand_query(keywords):
        for form_idx in range(len(form_index.forms)):
            if form_idx in matched:
                continue
            if form_index._form_matches(form_idx, expansion):
                matched.add(form_idx)
    scored = [
        (form_index.forms[i], form_index._score(i, keywords)) for i in matched
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0].label()))
    return scored[:k] if k is not None else scored


def group_forms(
    ranked: Sequence[Tuple[QueryForm, float]]
) -> Dict[str, Dict[str, List[QueryForm]]]:
    """Two-level grouping: skeleton first, query class second (slide 58)."""
    groups: Dict[str, Dict[str, List[QueryForm]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for form, _score in ranked:
        groups[form.skeleton.label()][form.query_class].append(form)
    return {k: dict(v) for k, v in groups.items()}


def suggest_forms(engine, text: str, k: int = 5) -> List[Tuple[QueryForm, float]]:
    """Ranked query forms for the keyword query *text* (slides 54-58).

    Generates the forms of every skeleton of up to three tables over
    *engine*'s schema, indexes them against its inverted index, and
    ranks them for the cleaned keywords.
    """
    engine.refresh()
    keywords = list(engine.parse(text).keywords)
    skeletons = generate_skeletons(engine.schema_graph, max_size=3)
    forms = generate_forms(engine.db.schema, skeletons)
    return rank_forms(FormIndex(forms, engine.index), keywords, k=k)
