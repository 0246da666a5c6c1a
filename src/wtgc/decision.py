"""Emptiness and finiteness of the support.

Both procedures work on eq-restricted positive classic grammars over
zero-sum free (and, for the shipped Boolean mapping, zero-divisor free)
semirings.  After eliminating zero-weight derivations, a tree is in the
support exactly when some final-supported nonterminal derives it, so
emptiness reduces to a productivity fixpoint.  Constraint satisfiability
never enters the fixpoint: every equality class is one governing child
plus sink copies, and the sink derives every tree, so any choice of
governing subtrees extends to a constraint-satisfying tree.

Finiteness is a cycle check on the nonterminal dependency graph; a
useful production whose equality class is governed by the sink itself
makes the support infinite outright, since that slot holds arbitrary
trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecisionError
from .grammar import Wtgc, eq_restriction
from .pumping import ensure_nonbot_child
from .semantics import weight_map
from .transforms import eliminate_zero_derivations, saturate
from .trees import enumerate_trees


@dataclass(frozen=True)
class ProductivityTable:
    productive: frozenset
    reachable: frozenset


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


def productivity(g: Wtgc) -> ProductivityTable:
    """Least fixpoint of `all decomposed children productive`, and the
    nonterminals reachable from the final support through productions
    with productive children."""
    decs = {p: g.decompose(p) for p in g.productions}
    productive = saturate({p: dec.states for p, dec in decs.items()},
                          lambda p, _: ((p.target, True),))
    below: dict[str, set] = {}
    for p, dec in decs.items():
        if all(state in productive for state in dec.states):
            below.setdefault(p.target, set()).update(dec.states)
    reachable = set(g.final_support())
    todo = list(reachable)
    while todo:
        for state in below.get(todo.pop(), ()):
            if state not in reachable:
                reachable.add(state)
                todo.append(state)
    return ProductivityTable(frozenset(productive), frozenset(reachable))


def is_support_empty(g: Wtgc) -> bool:
    """True iff the grammar assigns a nonzero weight to no tree at all."""
    _require_decidable(g)
    h = eliminate_zero_derivations(g)
    table = productivity(h)
    return not any(q in table.productive for q in h.final_support())


def is_support_finite(g: Wtgc) -> bool:
    """True iff only finitely many trees carry nonzero weight."""
    return finiteness_analysis(g)[0]


def finiteness_analysis(g: Wtgc) -> tuple[bool, str]:
    """The finiteness verdict together with a one-line explanation
    (the detected cycle, the free sink slot, or the absence of both)."""
    _require_decidable(g)
    h = eliminate_zero_derivations(ensure_nonbot_child(g))
    er = eq_restriction(h)
    if er is None:
        raise DecisionError("preprocessing lost the eq-restriction")
    sink = er.sink
    table = productivity(h)
    useful = table.productive & table.reachable

    grows = g.alphabet.max_rank() >= 1
    edges: dict[str, set] = {}
    for p in h.productions:
        if p.target == sink or p.target not in useful:
            continue
        dec = h.decompose(p)
        if not all(state in table.productive for state in dec.states):
            continue
        gp = er.governing[p]
        for i, state in enumerate(dec.states, start=1):
            if state == sink:
                if grows and dec.states[gp[i] - 1] == sink:
                    # a sink-governed slot holds arbitrary trees
                    return False, (f"sink-governed slot in a production "
                                   f"for {p.target}")
            elif state in useful:
                edges.setdefault(state, set()).add(p.target)

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


def enumerate_support(g: Wtgc, max_size: int) -> list:
    """All trees of size at most max_size with nonzero weight, in
    canonical order; the brute-force oracle for both decisions.

    The enumeration is weighed in one batch, in which each tree reuses
    its children's vectors."""
    zero = g.semiring.zero
    trees = list(enumerate_trees(g.alphabet, max_size))
    weights = weight_map(g).evaluate_all(trees)
    return [t for t, w in zip(trees, weights) if w != zero]
