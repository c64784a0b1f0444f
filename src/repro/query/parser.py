"""Fielded query DSL -> canonical :class:`StructuredQuery`.

Grammar (whitespace-separated, ``AND``/``OR``/``NOT`` must be uppercase
to act as operators; anything else is query text and is normalised by
the same tokenizer the inverted index uses)::

    expr     := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := unary (AND? unary)*          # adjacency is implicit AND
    unary    := (NOT | '-') unary | atom
    atom     := '(' expr ')' | phrase | fielded | word
    phrase   := '"' text '"' ['^' number]
    fielded  := name ':' value               # value: bare, quoted, or a..b
    word     := token ['^' number]

Examples: ``author:smith year:2008..2012``, ``"query processing"``,
``xml AND (search OR retrieval) NOT twig``, ``ranking^2 keyword``.

The parser produces a frozen, hashable :class:`StructuredQuery` in
conjunctive normal form: an AND of OR-groups of weighted terms, plus
excluded (NOT) terms, phrase constraints and field predicates.  Two
texts that normalise identically compare equal, which is what lets the
result-cache key, span tags, ``search --json`` and the HTTP API all
speak this one object.

Bare keyword queries — no operators, fields, phrases or weights — are
guaranteed to normalise to exactly the plain token stream
(:func:`repro.index.text.tokenize`); :attr:`StructuredQuery.is_bare`
marks them, and the compiler lowers one as a single branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.index.text import tokenize
from repro.resilience.errors import QueryParseError

#: Hard cap on CNF clauses produced by OR-distribution, so a
#: pathological ``(a b c ...) OR (d e f ...)`` query cannot blow up
#: normalisation.
MAX_GROUPS = 64

_OPERATORS = {"AND", "OR", "NOT"}


@dataclass(frozen=True, order=True)
class Term:
    """One weighted query token (already lowercased/tokenized)."""

    token: str
    weight: float = 1.0

    def label(self) -> str:
        if self.weight != 1.0:
            return f"{self.token}^{self.weight:g}"
        return self.token


@dataclass(frozen=True)
class PhraseConstraint:
    """Adjacency constraint: tokens must appear consecutively in a row."""

    tokens: Tuple[str, ...]
    weight: float = 1.0

    def label(self) -> str:
        body = '"' + " ".join(self.tokens) + '"'
        if self.weight != 1.0:
            body += f"^{self.weight:g}"
        return body


@dataclass(frozen=True)
class FieldPredicate:
    """A structural constraint: ``field:value`` or ``field:lo..hi``.

    *field* names either a column (in any table that has it) or a
    table; resolution against a concrete schema happens at compile
    time (:mod:`repro.query.compiler`).  ``lo``/``hi`` are ``None`` for
    open-ended ranges (``year:2008..``).
    """

    field: str
    op: str  # "eq" | "range"
    value: str = ""
    lo: Optional[float] = None
    hi: Optional[float] = None
    negated: bool = False
    #: synonym-expanded values: an eq predicate matches its value OR
    #: any alternative (set by the ``expand=synonyms`` pipeline knob)
    alternatives: Tuple[str, ...] = ()

    def label(self) -> str:
        if self.op == "range":
            lo = "" if self.lo is None else f"{self.lo:g}"
            hi = "" if self.hi is None else f"{self.hi:g}"
            body = f"{self.field}:{lo}..{hi}"
        else:
            value = self.value
            if any(ch.isspace() for ch in value):
                value = f'"{value}"'
            body = f"{self.field}:{value}"
            if self.alternatives:
                body += "|" + "|".join(self.alternatives)
        return f"-{body}" if self.negated else body


@dataclass(frozen=True)
class StructuredQuery:
    """Canonical parsed query: AND of OR-groups + constraints.

    Hashable and order-stable: the *identity* part (groups, excluded,
    phrases, predicates) is exactly what :meth:`cache_key` returns, so
    any two texts that normalise to the same structure share one
    result-cache entry, while structurally different queries that
    happen to tokenize identically (``author:smith`` vs
    ``author smith``) get distinct keys.
    """

    raw: str
    groups: Tuple[Tuple[Term, ...], ...] = ()
    excluded: Tuple[str, ...] = ()
    phrases: Tuple[PhraseConstraint, ...] = ()
    predicates: Tuple[FieldPredicate, ...] = ()
    #: original bare tokens when query cleaning rewrote them
    cleaned_from: Optional[Tuple[str, ...]] = field(default=None, compare=False)

    # -- shape ---------------------------------------------------------
    @property
    def is_bare(self) -> bool:
        """True when this is a plain keyword query with no DSL constructs.

        A bare query compiles to one branch with nothing to filter,
        weight or merge (see :mod:`repro.query.compiler`).
        """
        return (
            not self.excluded
            and not self.phrases
            and not self.predicates
            and all(
                len(group) == 1 and group[0].weight == 1.0
                for group in self.groups
            )
        )

    @property
    def is_empty(self) -> bool:
        return not self.groups and not self.phrases and not self.predicates

    @property
    def has_weights(self) -> bool:
        return any(t.weight != 1.0 for g in self.groups for t in g) or any(
            p.weight != 1.0 for p in self.phrases
        )

    def bare_keywords(self) -> List[str]:
        """Token stream of a bare query (order and duplicates kept)."""
        return [group[0].token for group in self.groups]

    def branch_count(self) -> int:
        n = 1
        for group in self.groups:
            n *= len(group)
        return n

    # -- identity ------------------------------------------------------
    def cache_key(self) -> Tuple:
        """Hashable identity; ignores raw text and cleaning provenance."""
        return ("sq1", self.groups, self.excluded, self.phrases, self.predicates)

    def canonical(self) -> str:
        """Deterministic one-line form for span tags and logs.

        Round-trip stable: ``parse_query(q.canonical()).cache_key() ==
        q.cache_key()``.  Phrase constraints inject their tokens as
        trailing keyword groups at parse time; rendering the phrase
        re-injects them on reparse, so that tail is skipped here.
        """
        groups = self.groups
        injected = tuple(
            (Term(t, p.weight),) for p in self.phrases for t in p.tokens
        )
        if injected and groups[-len(injected):] == injected:
            groups = groups[: len(groups) - len(injected)]
        parts: List[str] = []
        for group in groups:
            if len(group) == 1:
                parts.append(group[0].label())
            else:
                parts.append("(" + " OR ".join(t.label() for t in group) + ")")
        parts.extend(p.label() for p in self.phrases)
        parts.extend(f"-{tok}" for tok in self.excluded)
        parts.extend(p.label() for p in self.predicates)
        return " ".join(parts)

    def to_dict(self) -> dict:
        out: dict = {"canonical": self.canonical(), "bare": self.is_bare}
        if self.groups:
            out["groups"] = [
                [{"token": t.token, "weight": t.weight} for t in g]
                for g in self.groups
            ]
        if self.excluded:
            out["excluded"] = list(self.excluded)
        if self.phrases:
            out["phrases"] = [" ".join(p.tokens) for p in self.phrases]
        if self.predicates:
            out["predicates"] = [p.label() for p in self.predicates]
        if self.cleaned_from is not None:
            out["cleaned_from"] = list(self.cleaned_from)
        return out

    def with_bare_keywords(self, tokens: Sequence[str]) -> "StructuredQuery":
        """Bare-query rewrite (cleaning), recording the original tokens."""
        return replace(
            self,
            groups=tuple((Term(t.lower()),) for t in tokens),
            cleaned_from=tuple(self.bare_keywords()),
        )


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Tok:
    kind: str  # lparen rparen op word phrase fielded
    text: str = ""
    value: str = ""
    weight: float = 1.0


def _parse_weight(spec: str, pos: int) -> float:
    try:
        weight = float(spec)
    except ValueError:
        raise QueryParseError(
            f"invalid weight {spec!r} at position {pos}"
        ) from None
    if weight <= 0:
        raise QueryParseError(f"weight must be positive, got {spec!r}")
    return weight


def _lex(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            toks.append(_Tok("lparen" if ch == "(" else "rparen"))
            i += 1
            continue
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise QueryParseError(f"unterminated phrase at position {i}")
            body = text[i + 1 : end]
            i = end + 1
            weight = 1.0
            if i < n and text[i] == "^":
                j = i + 1
                while j < n and not text[j].isspace() and text[j] not in '()"':
                    j += 1
                weight = _parse_weight(text[i + 1 : j], i)
                i = j
            toks.append(_Tok("phrase", text=body, weight=weight))
            continue
        if ch == "-" and i + 1 < n and not text[i + 1].isspace():
            toks.append(_Tok("op", text="NOT"))
            i += 1
            continue
        # bare word / operator / field:value run
        j = i
        while j < n and not text[j].isspace() and text[j] not in '()"':
            j += 1
        word = text[i:j]
        i = j
        if word in _OPERATORS:
            toks.append(_Tok("op", text=word))
            continue
        colon = word.find(":")
        if colon > 0:
            name, value = word[:colon], word[colon + 1 :]
            if not value and i < n and text[i] == '"':
                # field:"quoted value"
                end = text.find('"', i + 1)
                if end < 0:
                    raise QueryParseError(
                        f"unterminated field value at position {i}"
                    )
                value = text[i + 1 : end]
                i = end + 1
            if value:
                toks.append(_Tok("fielded", text=name.lower(), value=value))
                continue
            # trailing colon with no value ("time:"): legacy text, not
            # DSL — fall through and treat the run as a plain word
        weight = 1.0
        caret = word.rfind("^")
        if caret > 0:
            weight = _parse_weight(word[caret + 1 :], i)
            word = word[:caret]
        toks.append(_Tok("word", text=word, weight=weight))
    return toks


# ----------------------------------------------------------------------
# Recursive-descent parser over an AST, then CNF normalisation
# ----------------------------------------------------------------------
class _Node:
    pass


@dataclass
class _Leaf(_Node):
    tok: _Tok


@dataclass
class _Bool(_Node):
    op: str  # "and" | "or" | "not"
    children: List[_Node]


class _Parser:
    def __init__(self, toks: List[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Optional[_Node]:
        if not self.toks:
            return None
        node = self.or_expr()
        if self.peek() is not None:
            raise QueryParseError(
                f"unexpected {self.peek().kind} token after query end"
            )
        return node

    def or_expr(self) -> _Node:
        children = [self.and_expr()]
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "OR":
                break
            self.take()
            children.append(self.and_expr())
        return children[0] if len(children) == 1 else _Bool("or", children)

    def and_expr(self) -> _Node:
        children = [self.unary()]
        while True:
            tok = self.peek()
            if tok is None or tok.kind == "rparen":
                break
            if tok.kind == "op" and tok.text == "OR":
                break
            if tok.kind == "op" and tok.text == "AND":
                self.take()
                tok = self.peek()
                if tok is None or tok.kind == "rparen":
                    raise QueryParseError("dangling AND operator")
            children.append(self.unary())
        return children[0] if len(children) == 1 else _Bool("and", children)

    def unary(self) -> _Node:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "NOT":
            self.take()
            inner = self.peek()
            if inner is None:
                raise QueryParseError("dangling NOT operator")
            return _Bool("not", [self.unary()])
        return self.atom()

    def atom(self) -> _Node:
        tok = self.peek()
        if tok is None:
            raise QueryParseError("unexpected end of query")
        if tok.kind == "lparen":
            self.take()
            node = self.or_expr()
            closing = self.peek()
            if closing is None or closing.kind != "rparen":
                raise QueryParseError("unbalanced parenthesis")
            self.take()
            return node
        if tok.kind == "rparen":
            raise QueryParseError("unbalanced parenthesis")
        if tok.kind == "op":
            raise QueryParseError(f"misplaced {tok.text} operator")
        return _Leaf(self.take())


@dataclass
class _Conj:
    """Normalisation accumulator: one conjunction of constraints."""

    groups: List[Tuple[Term, ...]]
    excluded: List[str]
    phrases: List[PhraseConstraint]
    predicates: List[FieldPredicate]
    #: Keyword groups injected by phrase constraints.  Kept apart so the
    #: final query always places them after the user's own groups —
    #: ``canonical()`` relies on that to skip them when rendering (the
    #: rendered phrase re-injects them on reparse).
    phrase_groups: List[Tuple[Term, ...]]

    @staticmethod
    def empty() -> "_Conj":
        return _Conj([], [], [], [], [])

    def merge(self, other: "_Conj") -> None:
        self.groups.extend(other.groups)
        self.excluded.extend(other.excluded)
        self.phrases.extend(other.phrases)
        self.predicates.extend(other.predicates)
        self.phrase_groups.extend(other.phrase_groups)

    @property
    def pure_terms(self) -> bool:
        return not self.excluded and not self.phrases and not self.predicates


def _field_predicate(tok: _Tok, negated: bool = False) -> FieldPredicate:
    value = tok.value
    if ".." in value:
        lo_s, hi_s = value.split("..", 1)
        try:
            lo = float(lo_s) if lo_s else None
            hi = float(hi_s) if hi_s else None
        except ValueError:
            raise QueryParseError(
                f"range bounds must be numeric: {tok.text}:{value}"
            ) from None
        if lo is None and hi is None:
            raise QueryParseError(f"empty range for field {tok.text!r}")
        return FieldPredicate(tok.text, "range", lo=lo, hi=hi, negated=negated)
    return FieldPredicate(tok.text, "eq", value=value.lower(), negated=negated)


def _leaf_conj(tok: _Tok) -> _Conj:
    conj = _Conj.empty()
    if tok.kind == "word":
        tokens = tokenize(tok.text)
        if not tokens and tok.weight == 1.0:
            return conj  # pure punctuation, legacy tokenizer drops it
        if not tokens:
            raise QueryParseError(f"weight attached to empty term {tok.text!r}")
        # A word that tokenizes to several tokens ("x-men") is an
        # implicit AND, matching the legacy token stream exactly.
        conj.groups.extend((Term(t, tok.weight),) for t in tokens)
        return conj
    if tok.kind == "phrase":
        tokens = tuple(tokenize(tok.text))
        if not tokens:
            return conj
        if len(tokens) == 1:
            conj.groups.append((Term(tokens[0], tok.weight),))
            return conj
        conj.phrases.append(PhraseConstraint(tokens, tok.weight))
        # Phrase tokens also participate as required keywords so every
        # method can retrieve candidates; adjacency is verified on the
        # result rows afterwards.
        conj.phrase_groups.extend((Term(t, tok.weight),) for t in tokens)
        return conj
    if tok.kind == "fielded":
        conj.predicates.append(_field_predicate(tok))
        return conj
    raise QueryParseError(f"unexpected {tok.kind} token")  # pragma: no cover


def _normalize(node: _Node) -> _Conj:
    if isinstance(node, _Leaf):
        return _leaf_conj(node.tok)
    assert isinstance(node, _Bool)
    if node.op == "and":
        conj = _Conj.empty()
        for child in node.children:
            conj.merge(_normalize(child))
        return conj
    if node.op == "or":
        parts = [_normalize(child) for child in node.children]
        for part in parts:
            if not part.pure_terms:
                raise QueryParseError(
                    "OR may only combine plain terms "
                    "(phrases, NOT and field predicates are AND-only)"
                )
        parts = [p for p in parts if p.groups]
        conj = _Conj.empty()
        if not parts:
            return conj
        # CNF distribution: (∧ai) OR (∧bj) = ∧ij (ai ∪ bj).
        clauses: List[Tuple[Term, ...]] = parts[0].groups
        for part in parts[1:]:
            merged = []
            for left in clauses:
                for right in part.groups:
                    union = dict.fromkeys(left)
                    union.update(dict.fromkeys(right))
                    merged.append(tuple(sorted(union)))
            clauses = merged
            if len(clauses) > MAX_GROUPS:
                raise QueryParseError(
                    f"query normalises to more than {MAX_GROUPS} AND-clauses"
                )
        conj.groups = clauses
        return conj
    # NOT
    inner = node.children[0]
    if isinstance(inner, _Bool) and inner.op == "not":
        return _normalize(inner.children[0])  # double negation
    conj = _Conj.empty()
    if isinstance(inner, _Leaf):
        tok = inner.tok
        if tok.kind == "word":
            conj.excluded.extend(tokenize(tok.text))
            return conj
        if tok.kind == "phrase":
            raise QueryParseError("NOT cannot apply to a phrase")
        if tok.kind == "fielded":
            conj.predicates.append(_field_predicate(tok, negated=True))
            return conj
    if isinstance(inner, _Bool) and inner.op == "or":
        for child in inner.children:
            part = _normalize(child)
            if not part.pure_terms or any(len(g) != 1 for g in part.groups):
                raise QueryParseError(
                    "NOT (...) may only contain an OR of plain terms"
                )
            conj.excluded.extend(g[0].token for g in part.groups)
        return conj
    raise QueryParseError("NOT may only apply to a term, field, or OR of terms")


def parse_query(text: str) -> StructuredQuery:
    """Parse DSL *text* into a canonical :class:`StructuredQuery`.

    Raises :class:`~repro.resilience.errors.QueryParseError` on
    malformed input (unbalanced parens/quotes, dangling operators, bad
    weights or range bounds, unsupported NOT/OR shapes).
    """
    node = _Parser(_lex(text)).parse()
    if node is None:
        return StructuredQuery(raw=text)
    conj = _normalize(node)
    # Drop excluded tokens that also appear as required terms is NOT
    # done here: ``a NOT a`` is contradictory and correctly returns
    # nothing — silently repairing it would mask user intent.
    return StructuredQuery(
        raw=text,
        groups=tuple(conj.groups) + tuple(conj.phrase_groups),
        excluded=tuple(dict.fromkeys(conj.excluded)),
        phrases=tuple(conj.phrases),
        predicates=tuple(conj.predicates),
    )
