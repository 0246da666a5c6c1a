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
    walk,
)


_UNSET = object()
_EMPTY = frozenset()  # shared by every production without constraints


def make_constraints(pairs) -> frozenset:
    """Canonicalize a collection of position pairs: each pair ordered,
    the collection a frozenset.  Satisfaction is symmetric, so nothing
    observable is lost; a canonical frozenset comes back as it is.  A
    pair that is not two comparable sequences raises `GrammarError`."""
    if not pairs:
        return _EMPTY
    if type(pairs) is frozenset:
        try:
            for v, w in pairs:
                if type(v) is not tuple or type(w) is not tuple or w < v:
                    break
            else:
                return pairs
        except (TypeError, ValueError):
            pass  # reported below, with the pair
    out = set()
    for pair in pairs:
        try:
            v, w = map(tuple, pair)
            out.add((v, w) if v <= w else (w, v))
        except (TypeError, ValueError):
            raise GrammarError(f"bad constraint pair {pair!r}") from None
    return frozenset(out)


@dataclass(frozen=True, init=False)
class Production:
    """lhs --E,I--> target with a semiring weight, hashed once."""

    __slots__ = ("lhs", "target", "weight", "eq", "ineq", "_hash")
    lhs: Tree
    target: str
    weight: object
    eq: frozenset
    ineq: frozenset

    def __init__(self, lhs, target, weight, eq=_EMPTY, ineq=_EMPTY):
        eq, ineq = make_constraints(eq), make_constraints(ineq)
        init = object.__setattr__
        init(self, "lhs", lhs)
        init(self, "target", target)
        init(self, "weight", weight)
        init(self, "eq", eq)
        init(self, "ineq", ineq)
        init(self, "_hash", hash((lhs, target, weight, eq, ineq)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # copies and pickles go through __init__
        return Production, (self.lhs, self.target, self.weight, self.eq,
                            self.ineq)

    def constrained_positions(self):
        return {v for pair in self.eq | self.ineq for v in pair}


@dataclass(frozen=True)
class DecomposedLhs:
    """The unique splitting lhs = c[q1...qk]: the nonterminal leaves q1..qk
    with their positions, left to right, and (position, label, arity) of
    every other node of the context c below its root, in pre-order.  An
    lhs is normalized, sigma(q1...qk), exactly when `checks` is empty."""

    states: tuple[str, ...]
    positions: tuple[Position, ...]
    checks: tuple[tuple[Position, str, int], ...]


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
    identifiers used in derivation output; `spellings` keeps those
    forms, in the same order, for the writer and the diagnostics.
    Derived views (production identifiers, decompositions, the final
    support, the classification, the eq-restriction and the weight map
    of `semantics`) are computed on first use and kept on the instance.
    """

    __slots__ = ("nonterminals", "alphabet", "final", "productions",
                 "spellings", "semiring", "_ids", "_decompositions",
                 "_final_support", "_classification", "_eq_restriction",
                 "_weights")

    def __init__(self, nonterminals, alphabet: RankedAlphabet, final,
                 productions, semiring: Semiring):
        self.nonterminals = frozenset(nonterminals)
        self.alphabet = alphabet
        self.semiring = semiring
        # undeclared keys stay in, after the declared ones, so that
        # `validate` reports them
        self.final = {q: semiring.zero for q in sorted(self.nonterminals)}
        self.final.update(final)
        productions = list(set(productions))
        spellings = [production_str(p, semiring) for p in productions]
        order = sorted(range(len(productions)), key=spellings.__getitem__)
        self.productions = tuple([productions[i] for i in order])
        self.spellings = tuple([spellings[i] for i in order])
        self._ids = None
        self._decompositions = {}
        self._final_support = None
        self._classification = None
        self._eq_restriction = _UNSET  # None means "not eq-restricted"
        self._weights = None
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
        dec = self._decompositions.get(p)
        if dec is None:
            dec = self._decompositions[p] = decompose(p, self.nonterminals)
        return dec

    def final_support(self) -> tuple[str, ...]:
        """The nonterminals with a nonzero final weight, sorted."""
        if self._final_support is None:
            zero = self.semiring.zero
            self._final_support = tuple(
                q for q in self.final if self.final[q] != zero)
        return self._final_support


def decompose(p: Production, nonterminals) -> DecomposedLhs:
    """Split the lhs below its root in pre-order; a well-formed lhs has a
    symbol at the root."""
    states, positions, checks = [], [], []
    for w, node in walk(p.lhs):
        if not w:
            continue
        if not node.children and node.label in nonterminals:
            states.append(node.label)
            positions.append(w)
        else:
            checks.append((w, node.label, len(node.children)))
    return DecomposedLhs(tuple(states), tuple(positions), tuple(checks))


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

    for p, spelling in zip(g.productions, g.spellings):
        found = []
        if p.lhs.label in g.nonterminals and not p.lhs.children:
            found.append("lhs is a bare nonterminal")
        else:
            stack = [p.lhs]
            while stack:
                node = stack.pop()
                if node.label in g.nonterminals:
                    if node.children:
                        found.append(
                            f"nonterminal {node.label!r} with children")
                elif node.label in g.alphabet:
                    if len(node.children) != g.alphabet.rank(node.label):
                        found.append(f"arity mismatch at {node.label!r}")
                    stack.extend(reversed(node.children))
                else:
                    found.append(f"undeclared label {node.label!r}")
            if p.eq or p.ineq:
                parts = [i for pair in p.eq | p.ineq for w in pair for i in w]
                if any(type(i) is not int for i in parts):
                    found.append("constraint position component not an int")
                elif any(i < 1 for i in parts):
                    found.append("constraint position component below 1")
            if p.target not in g.nonterminals:
                found.append(f"undeclared target {p.target!r}")
            if not s.contains(p.weight):
                found.append("weight outside the carrier")
            elif p.weight == s.zero:
                found.append("zero-weight production")
        if found:
            out.extend(f"{spelling}: {problem}" for problem in found)
    return out


@dataclass(frozen=True)
class Classification:
    normalized: bool
    positive: bool
    classic: bool
    unconstrained: bool
    boolean_final: bool
    constraint_determined: bool


def _is_classic(g: Wtgc, p: Production) -> bool:
    nt_positions = set(g.decompose(p).positions)
    return p.constrained_positions() <= nt_positions


def clashing(g: Wtgc) -> frozenset:
    """The productions that share lhs and target with a production of
    other constraint sets; g is constraint-determined when there are
    none."""
    by_shape = {}
    for p in g.productions:
        by_shape.setdefault((p.lhs, p.target), set()).add((p.eq, p.ineq))
    return frozenset(p for p in g.productions
                     if len(by_shape[p.lhs, p.target]) > 1)


def classify(g: Wtgc) -> Classification:
    if g._classification is not None:
        return g._classification
    s = g.semiring
    g._classification = Classification(
        normalized=all(not g.decompose(p).checks for p in g.productions),
        positive=all(not p.ineq for p in g.productions),
        classic=all(_is_classic(g, p) for p in g.productions),
        unconstrained=all(not p.eq and not p.ineq for p in g.productions),
        boolean_final=all(w in (s.zero, s.one) for w in g.final.values()),
        constraint_determined=not clashing(g),
    )
    return g._classification


def equality_classes(pairs) -> dict | None:
    """Every position named in `pairs`, and every prefix of one, mapped
    to the least position of its class under the congruence closure of
    the pairs: with u = v also u.i = v.i (Downey, Sethi & Tarjan,
    1980).  None when a class lies below itself, which no finite tree
    allows (Paterson & Wegman, 1978)."""
    least = {v[:k]: v[:k] for pair in pairs for v in pair
             for k in range(len(v) + 1)}
    kids: dict = {v: {} for v in least}  # per class, a child per step
    for v in filter(None, least):
        kids[v[:-1]][v[-1]] = v

    def find(v):
        while least[v] != v:
            v = least[v]
        return v

    todo = list(pairs)
    while todo:
        a, b = sorted(map(find, todo.pop()))
        if a != b:
            least[b] = a
            for i, child in kids.pop(b).items():
                todo.append((kids[a].setdefault(i, child), child))
    below = {v: {find(c) for c in children.values()}
             for v, children in kids.items()}
    done: set = set()
    while len(done) < len(below):  # peel bottom-up; a cycle never peels
        ready = {v for v, children in below.items() if children <= done}
        if ready <= done:
            return None
        done |= ready
    return {v: find(v) for v in least}


@dataclass(frozen=True)
class EqRestriction:
    """A sink nonterminal plus, per production, the map sending each
    index to the governing index of its equality class."""

    sink: str
    governing: dict


def sink_productions(alphabet: RankedAlphabet, q: str, one) -> set:
    """sigma(q, ..., q) -> q with weight `one` for every symbol sigma:
    the productions of a sink q deriving every tree exactly once."""
    return {Production(Tree(name, [leaf(q)] * rank), q, one)
            for name, rank in alphabet.symbols()}


def _sink_candidates(g: Wtgc):
    zero = g.semiring.zero
    for q in sorted(g.nonterminals):
        if g.final[q] != zero:
            continue
        actual = {p for p in g.productions if p.target == q}
        if actual == sink_productions(g.alphabet, q, g.semiring.one):
            yield q


def eq_restriction(g: Wtgc):
    """The sink and governing maps if the grammar is eq-restricted,
    otherwise None.

    Every equality class of every production must hold exactly one
    governing index: the unique non-sink member, or the class member
    itself for singleton all-sink classes (the sink productions need
    that reading).  Computed once per grammar.
    """
    if g._eq_restriction is _UNSET:
        g._eq_restriction = _find_eq_restriction(g)
    return g._eq_restriction


def _find_eq_restriction(g: Wtgc):
    cls = classify(g)
    if not (cls.positive and cls.classic):
        return None
    for sink in _sink_candidates(g):
        governing = {}
        for p in g.productions:
            gp = _governing(g, p, sink)
            if gp is None:
                break
            governing[p] = gp
        else:
            return EqRestriction(sink, governing)
    return None


def _governing(g: Wtgc, p: Production, sink: str):
    """The 1-based indices of a classic production mapped to the governor
    of their equality class, or None when a class of two or more has
    other than one non-sink member."""
    dec = g.decompose(p)
    least = equality_classes(p.eq)
    classes = {}
    for i, w in enumerate(dec.positions, 1):
        classes.setdefault(least.get(w, w), []).append(i)
    gp = {}
    for members in classes.values():
        non_sink = [i for i in members if dec.states[i - 1] != sink]
        if len(non_sink) != 1 and len(members) != 1:
            return None
        gp.update((i, (non_sink or members)[0]) for i in members)
    return dict(sorted(gp.items()))


class Names(dict):
    """Fresh names, spelled on first lookup by `spell(key)` and primed
    until they avoid the names taken at construction and each other."""

    def __init__(self, taken, spell=str):
        super().__init__()
        self.taken = set(taken)
        self.spell = spell

    def __missing__(self, key):
        name = self.spell(key)
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        self[key] = name
        return name
