"""Regex formulas: regular expressions with capture variables.

The extractor layer of the spanner framework (Fagin et al.): a regex
formula is a regular expression enriched with variable bindings
``x{ ... }``; matching a document yields, per match, a *span assignment*
mapping each variable to the span it captured.

Syntax accepted by :func:`parse_regex_formula`::

    γ(x) = .*x{acheive|begining}.*

* ``.`` matches any single letter of the alphabet (resolved at evaluation);
* ``x{ ... }`` binds variable x to the span matched by the body;
* ``| * + ? ( )`` as usual.

*Functionality* (every match binds every variable exactly once) is the
standard well-formedness condition for extractors; it is enforced
structurally: union branches must bind the same variable set, starred and
optional subexpressions must bind none, and a variable may not be bound
twice on one path.

Evaluation is by recursive span enumeration with memoisation on
(node, start, end) — exact and comfortably fast for the document sizes the
experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import metrics
from repro.spanners.spans import Span

__all__ = [
    "RegexFormula",
    "RTerminal",
    "RAny",
    "REpsilon",
    "RUnion",
    "RConcat",
    "RStar",
    "RBind",
    "parse_regex_formula",
    "SpanAssignment",
]

#: A span assignment: variable name → Span, hashable.
SpanAssignment = "frozenset[tuple[str, Span]]"


class RegexFormula:
    """Base class of regex-formula AST nodes."""

    def variables(self) -> frozenset[str]:
        """The variables this node binds on every match."""
        raise NotImplementedError

    def _enumerate(
        self, document: str, start: int, end: int, cache: dict
    ) -> "frozenset":
        """Return the span assignments under which d[start:end] matches."""
        raise NotImplementedError

    def _matches(
        self, document: str, start: int, end: int, cache: dict | None = None
    ) -> "frozenset":
        """Memoised evaluation: results are cached per (node, start, end).

        The cache is scoped to one ``match_spans`` call (one document), so
        shared subexpressions and the quadratically-many ``.*`` probes are
        each computed once.
        """
        if cache is None:
            cache = {}
        key = (id(self), start, end)
        hit = cache.get(key)
        if hit is None:
            hit = self._enumerate(document, start, end, cache)
            cache[key] = hit
        return hit

    def match_spans(self, document: str) -> frozenset:
        """Evaluate on a full document: the set of span assignments of
        complete matches (each a frozenset of (var, Span) pairs).

        Memoised across calls on ``(formula, document)`` — AST nodes are
        frozen dataclasses, so equality is structural.  Spanner
        expression trees re-evaluate shared subtrees (``pairs - equal``
        walks ``pairs`` twice, and each ``evaluate`` recurses from the
        leaves), so the same extractor hits the same document several
        times per pipeline; the result is an immutable frozenset, safe
        to share.
        """
        return _match_spans_cached(self, document)


@dataclass(frozen=True)
class REpsilon(RegexFormula):
    """Matches the empty factor."""

    def variables(self) -> frozenset[str]:
        return frozenset()

    def _enumerate(self, document, start, end, cache):
        if start == end:
            return frozenset([frozenset()])
        return frozenset()


@dataclass(frozen=True)
class RTerminal(RegexFormula):
    """Matches one fixed letter."""

    symbol: str

    def __post_init__(self) -> None:
        if len(self.symbol) != 1:
            raise ValueError("terminal must be a single letter")

    def variables(self) -> frozenset[str]:
        return frozenset()

    def _enumerate(self, document, start, end, cache):
        if end == start + 1 and document[start] == self.symbol:
            return frozenset([frozenset()])
        return frozenset()


@dataclass(frozen=True)
class RAny(RegexFormula):
    """Matches any single letter (the ``.`` / Σ wildcard)."""

    def variables(self) -> frozenset[str]:
        return frozenset()

    def _enumerate(self, document, start, end, cache):
        if end == start + 1:
            return frozenset([frozenset()])
        return frozenset()


@dataclass(frozen=True)
class RUnion(RegexFormula):
    """Alternation; branches must bind the same variables (functionality)."""

    left: RegexFormula
    right: RegexFormula

    def __post_init__(self) -> None:
        if self.left.variables() != self.right.variables():
            raise ValueError(
                "union branches bind different variables "
                f"({sorted(self.left.variables())} vs "
                f"{sorted(self.right.variables())}); the formula would not "
                "be functional"
            )

    def variables(self) -> frozenset[str]:
        return self.left.variables()

    def _enumerate(self, document, start, end, cache):
        return self.left._matches(document, start, end, cache) | (
            self.right._matches(document, start, end, cache)
        )


@dataclass(frozen=True)
class RConcat(RegexFormula):
    """Concatenation; the parts must bind disjoint variable sets."""

    left: RegexFormula
    right: RegexFormula

    def __post_init__(self) -> None:
        overlap = self.left.variables() & self.right.variables()
        if overlap:
            raise ValueError(
                f"variables bound twice on one path: {sorted(overlap)}"
            )

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def _enumerate(self, document, start, end, cache):
        result = set()
        for split in range(start, end + 1):
            left_matches = self.left._matches(document, start, split, cache)
            if not left_matches:
                continue
            right_matches = self.right._matches(document, split, end, cache)
            for left_assignment in left_matches:
                for right_assignment in right_matches:
                    result.add(left_assignment | right_assignment)
        return frozenset(result)


@dataclass(frozen=True)
class RStar(RegexFormula):
    """Kleene star; the body must bind no variables (functionality)."""

    inner: RegexFormula

    def __post_init__(self) -> None:
        if self.inner.variables():
            raise ValueError(
                "starred subexpressions cannot bind variables "
                f"({sorted(self.inner.variables())})"
            )

    def variables(self) -> frozenset[str]:
        return frozenset()

    def _enumerate(self, document, start, end, cache):
        # d[start:end] ∈ L(inner)* — decide by DP over reachable positions;
        # no variables are bound, so the only possible assignment is ∅.
        if start == end:
            return frozenset([frozenset()])
        reachable = {start}
        frontier = [start]
        while frontier:
            position = frontier.pop()
            for mid in range(position + 1, end + 1):
                if mid in reachable:
                    continue
                if self.inner._matches(document, position, mid, cache):
                    reachable.add(mid)
                    frontier.append(mid)
        if end in reachable:
            return frozenset([frozenset()])
        return frozenset()


@dataclass(frozen=True)
class RBind(RegexFormula):
    """The capture ``var{ body }``: binds var to the matched span."""

    var: str
    body: RegexFormula

    def __post_init__(self) -> None:
        if self.var in self.body.variables():
            raise ValueError(f"variable {self.var!r} bound twice")

    def variables(self) -> frozenset[str]:
        return self.body.variables() | {self.var}

    def _enumerate(self, document, start, end, cache):
        bound = (self.var, Span(start, end))
        return frozenset(
            assignment | {bound}
            for assignment in self.body._matches(document, start, end, cache)
        )


class _FormulaParser:
    """Recursive-descent parser for the regex-formula syntax."""

    _META = set("|*+?(){}.")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def parse(self) -> RegexFormula:
        node = self.union()
        if self.pos != len(self.text):
            raise ValueError(
                f"trailing input at {self.pos}: {self.text[self.pos:]!r}"
            )
        return node

    def union(self) -> RegexFormula:
        node = self.concat()
        while self.peek() == "|":
            self.take()
            node = RUnion(node, self.concat())
        return node

    def concat(self) -> RegexFormula:
        parts: list[RegexFormula] = []
        while self.peek() is not None and self.peek() not in "|)}":
            parts.append(self.repeat())
        if not parts:
            return REpsilon()
        node = parts[0]
        for part in parts[1:]:
            node = RConcat(node, part)
        return node

    def repeat(self) -> RegexFormula:
        node = self.atom()
        while self.peek() in ("*", "+", "?"):
            op = self.take()
            if op == "*":
                node = RStar(node)
            elif op == "+":
                node = RConcat(node, RStar(node))
            else:
                node = RUnion(node, REpsilon()) if not node.variables() else (
                    self._optional_error()
                )
        return node

    @staticmethod
    def _optional_error() -> RegexFormula:
        raise ValueError("'?' over a variable-binding subexpression is not functional")

    def atom(self) -> RegexFormula:
        ch = self.peek()
        if ch is None:
            raise ValueError("unexpected end of pattern")
        if ch == "(":
            self.take()
            if self.peek() == ")":
                self.take()
                return REpsilon()
            node = self.union()
            if self.peek() != ")":
                raise ValueError(f"unbalanced '(' at {self.pos}")
            self.take()
            return node
        if ch == ".":
            self.take()
            return RAny()
        if ch in self._META:
            raise ValueError(f"unexpected {ch!r} at {self.pos}")
        self.take()
        if self.peek() == "{":
            self.take()
            body = self.union()
            if self.peek() != "}":
                raise ValueError(f"unbalanced '{{' at {self.pos}")
            self.take()
            return RBind(ch, body)
        if ch == "ε":
            return REpsilon()
        return RTerminal(ch)


@lru_cache(maxsize=4096)
def _match_spans_cached(formula: RegexFormula, document: str) -> frozenset:
    """The cross-call ``match_spans`` memo (see that method's docstring).

    Sized for the engine workload: E18/E23 touch a few hundred distinct
    (formula, document) pairs, so the working set fits without
    evictions; entries are small frozensets of span assignments.
    """
    # repro-lint: allow[effects.purity-propagation] id() only keys the per-call memo dict; the result is structural in (formula, document)
    return formula._matches(document, 0, len(document), {})


metrics.register(
    "spanners.regex_formulas.match_spans", _match_spans_cached
)


@lru_cache(maxsize=256)
def parse_regex_formula(pattern: str) -> RegexFormula:
    """Parse a regex-formula pattern such as ``".*x{a(ba)*}.*"``.

    A single letter immediately followed by ``{`` is a variable binding;
    everything else follows ordinary regex syntax.
    """
    return _FormulaParser(pattern).parse()


metrics.register(
    "spanners.regex_formulas.parse_regex_formula", parse_regex_formula
)
