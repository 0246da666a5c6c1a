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
from .transforms import eliminate_zero_derivations
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
    productive = set()
    changed = True
    while changed:
        changed = False
        for p, dec in decs.items():
            if p.target in productive:
                continue
            if all(state in productive for state in dec.states):
                productive.add(p.target)
                changed = True
    reachable = set(g.final_support())
    changed = True
    while changed:
        changed = False
        for p, dec in decs.items():
            if p.target not in reachable:
                continue
            if not all(state in productive for state in dec.states):
                continue
            for state in dec.states:
                if state not in reachable:
                    reachable.add(state)
                    changed = True
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

    color: dict[str, int] = {}
    stack: list[str] = []

    def find_cycle(q: str):
        color[q] = 1
        stack.append(q)
        for nxt in sorted(edges.get(q, ())):
            c = color.get(nxt)
            if c == 1:
                return stack[stack.index(nxt):] + [nxt]
            if c is None:
                found = find_cycle(nxt)
                if found:
                    return found
        stack.pop()
        color[q] = 2
        return None

    for q in sorted(useful - {sink}):
        if q not in color:
            cycle = find_cycle(q)
            if cycle:
                return False, "cycle: " + " -> ".join(cycle)
    return True, "no productive cycle"


def enumerate_support(g: Wtgc, max_size: int) -> list:
    """All trees of size at most max_size with nonzero weight, in
    canonical order; the brute-force oracle for both decisions."""
    zero = g.semiring.zero
    evaluate = weight_map(g).evaluate
    return [t for t in enumerate_trees(g.alphabet, max_size)
            if evaluate(t) != zero]
