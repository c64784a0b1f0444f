"""The query object shared by both engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.index.text import tokenize


@dataclass(frozen=True)
class Query:
    """A keyword query: raw user input plus the cleaned keyword list."""

    raw: str
    keywords: Tuple[str, ...]
    cleaned_from: Optional[Tuple[str, ...]] = None

    @classmethod
    def parse(cls, text: str) -> "Query":
        return cls(raw=text, keywords=tuple(tokenize(text)))

    def with_keywords(self, keywords: Sequence[str]) -> "Query":
        """A cleaned/rewritten variant remembering its origin."""
        return Query(
            raw=self.raw,
            keywords=tuple(k.lower() for k in keywords),
            cleaned_from=self.keywords,
        )

    @property
    def was_cleaned(self) -> bool:
        return self.cleaned_from is not None and self.cleaned_from != self.keywords

    def __len__(self) -> int:
        return len(self.keywords)

    def canonical(self) -> str:
        """The text form traces show (as ``StructuredQuery.canonical``)."""
        return " ".join(self.keywords)

    __str__ = canonical
