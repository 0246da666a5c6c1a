"""The WTGc data model, well-formedness checks and classification.

A grammar is a finite nonterminal set, a ranked alphabet, a total map of
final weights, a production set and a semiring.  Productions carry a
left-hand side over symbols and nonterminal leaves, a target nonterminal,
finite sets of equality and inequality position pairs, and a nonzero
weight.  Constraint positions may point anywhere, including below the
left-hand side; the `classic` flag records when they only address
nonterminal leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GrammarError
from .semiring import Semiring
from .trees import (
    Position,
    RankedAlphabet,
    Tree,
    is_variable,
    leaf,
    pos_str,
    term_str,
    valid_name,
    variable,
)


def make_constraints(pairs) -> frozenset:
    """Canonicalize a collection of position pairs: each pair ordered,
    the collection a frozenset.  Satisfaction is symmetric, so nothing
    observable is lost."""
    out = set()
    for v, w in pairs:
        v, w = tuple(v), tuple(w)
        out.add((v, w) if v <= w else (w, v))
    return frozenset(out)


@dataclass(frozen=True)
class Production:
    """lhs --E,I--> target with a semiring weight."""

    lhs: Tree
    target: str
    weight: object
    eq: frozenset = frozenset()
    ineq: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "eq", make_constraints(self.eq))
        object.__setattr__(self, "ineq", make_constraints(self.ineq))

    def constrained_positions(self):
        out = set()
        for v, w in self.eq | self.ineq:
            out.add(v)
            out.add(w)
        return out


@dataclass(frozen=True)
class DecomposedLhs:
    """The unique splitting lhs = c[q1...qk] with variables x1..xk at the
    nonterminal positions, in left-to-right order."""

    context: Tree
    states: tuple[str, ...]
    positions: tuple[Position, ...]


def production_str(p: Production, semiring: Semiring) -> str:
    """Canonical serialization; doubles as the production identifier."""
    parts = [term_str(p.lhs), "->", p.target]
    for tag, pairs in (("eq", p.eq), ("ne", p.ineq)):
        if pairs:
            inner = ", ".join(
                f"{pos_str(v)}={pos_str(w)}" for v, w in sorted(pairs)
            )
            parts.append(f"[{tag} {inner}]")
    parts.append("@")
    parts.append(semiring.format(p.weight))
    return " ".join(parts)


class Wtgc:
    """A weighted tree grammar with constraints.

    Instances are immutable after construction; productions are stored
    sorted by their serialized form, which fixes the `p1, p2, ...`
    identifiers used in derivation output.  Derived views (production
    identifiers, decompositions, the final support and the weight map
    of `semantics`) are computed on first use and kept on the instance.
    """

    __slots__ = ("nonterminals", "alphabet", "final", "productions",
                 "semiring", "_ids", "_decompositions", "_final_support",
                 "_weights")

    def __init__(self, nonterminals, alphabet: RankedAlphabet, final,
                 productions, semiring: Semiring, check: bool = True):
        self.nonterminals = frozenset(nonterminals)
        self.alphabet = alphabet
        self.semiring = semiring
        self.final = {q: final.get(q, semiring.zero)
                      for q in sorted(self.nonterminals)}
        self.productions = tuple(sorted(
            set(productions), key=lambda p: production_str(p, semiring)))
        self._ids = None
        self._decompositions = {}
        self._final_support = None
        self._weights = None
        if check:
            problems = validate(self)
            if problems:
                raise GrammarError("; ".join(problems))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Wtgc):
            return NotImplemented
        return (self.semiring == other.semiring
                and self.alphabet == other.alphabet
                and self.nonterminals == other.nonterminals
                and self.final == other.final
                and set(self.productions) == set(other.productions))

    def __repr__(self):
        return (f"<wtgc {self.semiring.name}: {len(self.nonterminals)} "
                f"nonterminals, {len(self.productions)} productions>")

    # -- derived views ----------------------------------------------------

    def prod_id(self, p: Production) -> str:
        if self._ids is None:
            self._ids = {q: f"p{i + 1}"
                         for i, q in enumerate(self.productions)}
        try:
            return self._ids[p]
        except KeyError:
            raise GrammarError("foreign production identifier") from None

    def decompose(self, p: Production) -> DecomposedLhs:
        table = self._decompositions
        if p not in table:
            table[p] = decompose(p, self.nonterminals)
        return table[p]

    def final_support(self) -> tuple[str, ...]:
        """The nonterminals with a nonzero final weight, sorted."""
        if self._final_support is None:
            zero = self.semiring.zero
            self._final_support = tuple(
                q for q in self.final if self.final[q] != zero)
        return self._final_support


def decompose(p: Production, nonterminals) -> DecomposedLhs:
    states = []
    pos = []

    def walk(node, prefix):
        if node.label in nonterminals and not node.children:
            states.append(node.label)
            pos.append(prefix)
            return leaf(variable(len(states)))
        return Tree(node.label,
                    [walk(c, prefix + (i,))
                     for i, c in enumerate(node.children, start=1)])

    context = walk(p.lhs, ())
    return DecomposedLhs(context, tuple(states), tuple(pos))


def validate(g: Wtgc) -> list[str]:
    """Human-readable diagnostics; empty iff the grammar is well formed."""
    out = []
    s = g.semiring
    for q in g.nonterminals:
        if not valid_name(q) or is_variable(q):
            out.append(f"bad nonterminal name {q!r}")
        if q in g.alphabet:
            out.append(f"name {q!r} is both a nonterminal and a symbol")
    for q, weight in g.final.items():
        if q not in g.nonterminals:
            out.append(f"final weight for undeclared nonterminal {q!r}")
        elif not s.contains(weight):
            out.append(f"final weight of {q!r} outside the carrier")

    def check_lhs(node, pid):
        if node.label in g.nonterminals:
            if node.children:
                out.append(f"{pid}: nonterminal {node.label!r} with children")
        elif node.label in g.alphabet:
            if len(node.children) != g.alphabet.rank(node.label):
                out.append(f"{pid}: arity mismatch at {node.label!r}")
            for c in node.children:
                check_lhs(c, pid)
        else:
            out.append(f"{pid}: undeclared label {node.label!r}")

    for p in g.productions:
        pid = production_str(p, s)
        if p.lhs.label in g.nonterminals and not p.lhs.children:
            out.append(f"{pid}: lhs is a bare nonterminal")
            continue
        check_lhs(p.lhs, pid)
        if p.target not in g.nonterminals:
            out.append(f"{pid}: undeclared target {p.target!r}")
        if not s.contains(p.weight):
            out.append(f"{pid}: weight outside the carrier")
        elif p.weight == s.zero:
            out.append(f"{pid}: zero-weight production")
    return out


def strip_zero(productions, semiring: Semiring):
    """Drop zero-weight productions; they contribute nothing to any sum."""
    return [p for p in productions if p.weight != semiring.zero]


@dataclass(frozen=True)
class Classification:
    normalized: bool
    positive: bool
    classic: bool
    unconstrained: bool
    boolean_final: bool
    constraint_determined: bool


def _is_normalized(p: Production, nonterminals) -> bool:
    if p.lhs.label in nonterminals:
        return False
    return all(c.label in nonterminals and not c.children
               for c in p.lhs.children)


def _is_classic(g: Wtgc, p: Production) -> bool:
    nt_positions = set(g.decompose(p).positions)
    return p.constrained_positions() <= nt_positions


def classify(g: Wtgc) -> Classification:
    s = g.semiring
    by_shape = {}
    for p in g.productions:
        by_shape.setdefault((p.lhs, p.target), set()).add((p.eq, p.ineq))
    return Classification(
        normalized=all(_is_normalized(p, g.nonterminals)
                       for p in g.productions),
        positive=all(not p.ineq for p in g.productions),
        classic=all(_is_classic(g, p) for p in g.productions),
        unconstrained=all(not p.eq and not p.ineq for p in g.productions),
        boolean_final=all(w in (s.zero, s.one) for w in g.final.values()),
        constraint_determined=all(len(v) == 1 for v in by_shape.values()),
    )


def index_constraints(g: Wtgc, p: Production) -> frozenset:
    """The equality constraints of a classic production expressed on the
    indices 1..k of its decomposition."""
    d = g.decompose(p)
    by_pos = {w: i + 1 for i, w in enumerate(d.positions)}
    out = set()
    for v, w in p.eq:
        if v not in by_pos or w not in by_pos:
            raise GrammarError(
                f"non-classic production {production_str(p, g.semiring)}")
        i, j = by_pos[v], by_pos[w]
        out.add((i, j) if i <= j else (j, i))
    return frozenset(out)


def _index_classes(g: Wtgc, p: Production) -> dict[int, frozenset]:
    """Equivalence classes of 1..k under the reflexive-transitive closure
    of the index constraints."""
    k = len(g.decompose(p).states)
    parent = list(range(k + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in index_constraints(g, p):
        parent[find(i)] = find(j)
    groups = {}
    for i in range(1, k + 1):
        groups.setdefault(find(i), []).append(i)
    return {i: frozenset(members)
            for members in groups.values() for i in members}


@dataclass(frozen=True)
class EqRestriction:
    """A sink nonterminal plus, per production, the map sending each
    index to the governing index of its equality class."""

    sink: str
    governing: dict


def _sink_candidates(g: Wtgc):
    one = g.semiring.one
    zero = g.semiring.zero
    for q in sorted(g.nonterminals):
        if g.final[q] != zero:
            continue
        expected = {
            Production(Tree(name, [leaf(q)] * rank), q, one)
            for name, rank in g.alphabet.symbols()
        }
        actual = {p for p in g.productions if p.target == q}
        if expected == actual:
            yield q


def eq_restriction(g: Wtgc):
    """The sink and governing maps if the grammar is eq-restricted,
    otherwise None.

    Every equality class of every production must hold exactly one
    governing index: the unique non-sink member, or the class member
    itself for singleton all-sink classes (the sink productions need
    that reading).
    """
    cls = classify(g)
    if not (cls.positive and cls.classic):
        return None
    for sink in _sink_candidates(g):
        governing = {}
        ok = True
        for p in g.productions:
            states = g.decompose(p).states
            try:
                classes = _index_classes(g, p)
            except GrammarError:
                ok = False
                break
            gp = {}
            for i in range(1, len(states) + 1):
                members = classes[i]
                non_sink = [j for j in members if states[j - 1] != sink]
                if len(non_sink) == 1:
                    gp[i] = non_sink[0]
                elif not non_sink and len(members) == 1:
                    gp[i] = i
                else:
                    ok = False
                    break
            if not ok:
                break
            governing[p] = gp
        if ok:
            return EqRestriction(sink, governing)
    return None


def rename_nonterminals(t: Tree, mapping: dict) -> Tree:
    if not t.children:
        return leaf(mapping[t.label]) if t.label in mapping else t
    return Tree(t.label, [rename_nonterminals(c, mapping) for c in t.children])


def fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name
