"""Emptiness and finiteness of the support.

Both procedures work on eq-restricted positive classic grammars over
zero-sum free and zero-divisor free semirings, where no sum or product
of nonzero weights is zero: a tree is in the support exactly when it
derives to a final-supported nonterminal.  Constraints never block
that: every equality class is one governing child plus sink copies, and
the sink derives every tree, so any choice of governing subtrees
extends to a constraint-satisfying tree.  Both read the input's
`transforms.productivity` table, whose useful nonterminals (reachable
from the productive finals) are exactly those that some tree of the
support passes through; the support is empty iff there are none.

Finiteness is a cycle check on the dependency graph of the useful
productions; one whose equality class is governed by the sink itself
makes the support infinite outright, since that slot holds arbitrary
trees.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, permutations, product
from operator import attrgetter, itemgetter

from .errors import DecisionError
from .grammar import Wtgc, classify, eq_restriction
from .semantics import weight_map
from .transforms import productivity
from .trees import Tree, compositions, enumerate_trees


def _require_decidable(g: Wtgc):
    s = g.semiring
    if not s.zero_sum_free or not s.zero_divisor_free:
        raise DecisionError(
            f"support decisions need a zero-sum free and zero-divisor free "
            f"semiring, not {s.name}")
    er = eq_restriction(g)
    if er is None:
        raise DecisionError(
            "support decisions are implemented for eq-restricted positive "
            "classic grammars only; this grammar is outside that class")
    return er


def is_support_empty(g: Wtgc) -> bool:
    """True iff the grammar assigns a nonzero weight to no tree at all."""
    _require_decidable(g)
    return not productivity(g).reachable


def is_support_finite(g: Wtgc) -> bool:
    """True iff only finitely many trees carry nonzero weight."""
    return finiteness_analysis(g)[0]


def finiteness_analysis(g: Wtgc) -> tuple[bool, str]:
    """The finiteness verdict together with a one-line explanation
    (the detected cycle, the free sink slot, or the absence of both)."""
    er = _require_decidable(g)
    sink = er.sink
    useful = productivity(g).reachable
    edges: dict[str, set] = {}
    for p in g.productions:
        dec = g.decompose(p)
        if p.target == sink or not useful.issuperset((p.target, *dec.states)):
            continue
        for i, state in enumerate(dec.states, start=1):
            if state != sink:
                edges.setdefault(state, set()).add(p.target)
            elif dec.states[er.governing[p][i] - 1] == sink:
                # a sink-governed slot holds arbitrary trees
                return False, (f"sink-governed slot in a production "
                               f"for {p.target}")

    # depth-first search in sorted order with an explicit stack: `path`
    # holds the grey nodes, `todo` their unexplored successors
    color: dict[str, int] = {}
    for root in sorted(useful - {sink}):
        if root in color:
            continue
        color[root] = 1
        path = [root]
        todo = [iter(sorted(edges.get(root, ())))]
        while todo:
            for nxt in todo[-1]:
                c = color.get(nxt)
                if c == 1:
                    cycle = path[path.index(nxt):] + [nxt]
                    return False, "cycle: " + " -> ".join(cycle)
                if c is None:
                    color[nxt] = 1
                    path.append(nxt)
                    todo.append(iter(sorted(edges.get(nxt, ()))))
                    break
            else:
                todo.pop()
                color[path.pop()] = 2
    return True, "no productive cycle"


class _Class:
    """The trees of one size and one weight vector, as the union of its
    origins: a symbol, a tuple of child classes and an equality pattern
    of the slots.  `reps` holds up to as many members as the largest
    rank, enough distinct children for any pattern; `members` holds all
    of them once listed."""

    __slots__ = ("vector", "origins", "reps", "members")

    def __init__(self, vector):
        self.vector = vector
        self.origins = []
        self.reps = []
        self.members = None


@cache
def _patterns(shape):
    """Every equality pattern of the slots of a tuple of child classes,
    where shape[i] is the first slot holding slot i's class (slots of
    different classes never hold equal trees).

    A pattern is a set partition of each class's slots, given as the
    slots `firsts` that open a class, the number of blocks of each of
    those classes, and per slot its class's index in `firsts` and its
    block, numbered in order of first appearance."""
    out = [()]
    for i, first in enumerate(shape):
        out = [js + (j,) for js in out for j in range(
            1 if first == i else
            2 + max(b for f, b in zip(shape, js) if f == first))]
    firsts = tuple(i for i, first in enumerate(shape) if first == i)
    return tuple((firsts,
                  tuple(1 + max(b for f, b in zip(shape, js) if f == first)
                        for first in firsts),
                  tuple((firsts.index(f), j) for f, j in zip(shape, js)))
                 for js in out)


def _fillings(kids, pattern, pool):
    """The children of the trees of one origin, drawing the blocks of
    each child class from distinct entries of pool(class)."""
    firsts, blocks, at = pattern
    for picks in product(*(permutations(pool(kids[f]), b)
                           for f, b in zip(firsts, blocks))):
        yield [picks[i][j] for i, j in at]


def enumerate_support(g: Wtgc, max_size: int) -> list:
    """All trees of size at most max_size with nonzero weight, by size
    and then serialized form; the bounded oracle for both decisions.

    When the grammar is normalized and classic, every constraint relates
    two children of one node, so a node's weight vector depends only on
    its symbol, its children's vectors and which of its children are
    equal.  The trees are then grouped size by size into classes of
    equal (size, vector), as in the brother-constraint counting of
    Bogaert & Tison (STACS 1992): a class is a union of origins, and an
    origin has trees exactly when each child class has as many members
    as the origin has blocks of it.  One representative tree per origin
    is weighed through the grammar's weight map; member trees are listed
    only for the classes with a nonzero final weighting and the classes
    below them.  Any other grammar is weighed tree by tree over the
    enumeration."""
    m = weight_map(g)
    zero = g.semiring.zero
    cls = classify(g)
    if not (cls.normalized and cls.classic):
        return [t for t in enumerate_trees(g.alphabet, max_size)
                if m.evaluate(t) != zero]
    most = max(1, g.alphabet.max_rank())
    reps = attrgetter("reps")
    levels = [[]]
    for n in range(1, max_size + 1):
        found: dict = {}
        for name, rank in g.alphabet.symbols():
            for split in compositions(n - 1, rank):
                for kids in product(*(levels[s] for s in split)):
                    for pattern in _patterns(tuple(map(kids.index, kids))):
                        firsts, blocks, at = pattern
                        if any(len(kids[f].reps) < b
                               for f, b in zip(firsts, blocks)):
                            continue
                        vec = m.vector(Tree(name, [
                            kids[firsts[i]].reps[j] for i, j in at]))
                        c = found.get(vec)
                        if c is None:
                            c = found[vec] = _Class(vec)
                        c.origins.append((name, kids, pattern))
                        if len(c.reps) < most:
                            c.reps.extend(islice(
                                (Tree(name, ch) for ch in
                                 _fillings(kids, pattern, reps)),
                                most - len(c.reps)))
        levels.append(list(found.values()))
    support = {c for level in levels for c in level
               if m.total(c.vector) != zero}
    needed = set(support)
    todo = list(support)
    while todo:
        for _, kids, _ in todo.pop().origins:
            for k in kids:
                if k not in needed:
                    needed.add(k)
                    todo.append(k)
    members = attrgetter("members")
    out = []
    for level in levels:
        # (serialized form, tree) pairs, each form spelled from the
        # children's forms
        for c in level:
            if c in needed:
                c.members = [
                    (f"{name}({','.join(text for text, _ in ch)})"
                     if ch else name, Tree(name, [x for _, x in ch]))
                    for name, kids, pattern in c.origins
                    for ch in _fillings(kids, pattern, members)]
        out.extend(tree for _, tree in sorted(
            (x for c in level if c in support for x in c.members),
            key=itemgetter(0)))
    return out
