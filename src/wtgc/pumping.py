"""Constraint-aware derivation substitution and pumping.

In an eq-restricted grammar the subtrees forced equal by constraints are
all held by the sink, so replacing a derived subtree means replacing its
copies along the way.  `substitute_derivation` performs exactly that
recursive replacement; `pump` uses it to grow any sufficiently tall
accepted tree into arbitrarily many taller ones, after the standard
preprocessing (`ensure_nonbot_child` plus zero-derivation elimination).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PumpError
from .grammar import (
    Names,
    Production,
    Wtgc,
    eq_restriction,
    sink_productions,
)
from .semantics import (
    Derivation,
    derivation_weight,
    derivations,
    incorporated,
    replay_derivation,
)
from .trees import (
    Position,
    Tree,
    leaf,
    replace,
    subtree,
)


@dataclass(frozen=True)
class SubstitutionSite:
    """A base (tree, derivation) pair, a donor pair, and the position of
    the base at which the donor is substituted."""

    grammar: Wtgc
    base_tree: Tree
    base_derivation: Derivation
    donor_tree: Tree
    donor_derivation: Derivation
    at: Position


def _sink_steps(g: Wtgc, sink: str, t: Tree) -> tuple:
    """The unique derivation of t to the sink, as a left-most step list."""
    by_symbol = {}
    for p in g.productions:
        if p.target == sink:
            by_symbol[p.lhs.label] = p
    # a right-to-left pre-order, reversed, is the left-to-right post-order,
    # which is the left-most derivation order
    walk = []
    stack = [(t, ())]
    while stack:
        node, w = stack.pop()
        walk.append((node.label, w))
        stack.extend((c, w + (i,)) for i, c in enumerate(node.children, 1))
    try:
        return tuple((by_symbol[label], w) for label, w in reversed(walk))
    except KeyError as missing:
        raise PumpError(f"no sink production for symbol {missing}") from None


def substitute_derivation(site: SubstitutionSite) -> tuple[Tree, Derivation]:
    """Replace the subtree derived at `site.at` (and every position
    equality-linked to it along the derivation) by the donor tree,
    rederiving the linked copies through the sink."""
    g = site.grammar
    er = eq_restriction(g)
    if er is None:
        raise PumpError("substitution needs an eq-restricted grammar")
    sink = er.sink
    base, donor = site.base_derivation, site.donor_derivation

    at_target = incorporated(base, site.at).target
    if at_target is None or at_target != donor.target:
        raise PumpError("no derivation to the donor's nonterminal at the "
                        "substitution position")
    if donor.target == sink or base.target == sink:
        raise PumpError("substitution endpoints must not be the sink")

    def rec(t: Tree, steps: tuple, w: Position):
        if not w:
            return site.donor_tree, donor.steps
        p, root_pos = steps[-1]
        if root_pos != ():
            raise PumpError("derivation does not end at the root")
        dec = g.decompose(p)
        j = None
        for i, vpos in enumerate(dec.positions):
            if w[:len(vpos)] == vpos:
                j = i
                break
        if j is None:
            raise PumpError("substitution position is inside a left-hand "
                            "side, not below a nonterminal")
        blocks = []
        for vpos in dec.positions:
            n = len(vpos)
            blocks.append(tuple((pp, pos[n:]) for pp, pos in steps[:-1]
                                if pos[:n] == vpos))
        w_j = dec.positions[j]
        subtrees = [subtree(t, vpos) for vpos in dec.positions]
        new_subtree, new_block = rec(subtrees[j], blocks[j], w[len(w_j):])

        linked = _linked_positions(g, er, p, j)
        out_steps = []
        out_subtrees = []
        for i, vpos in enumerate(dec.positions):
            if i == j:
                sub, block = new_subtree, new_block
            elif dec.states[i] == sink and vpos in linked:
                sub = new_subtree
                block = _sink_steps(g, sink, sub)
            else:
                sub, block = subtrees[i], blocks[i]
            out_subtrees.append(sub)
            out_steps.extend((pp, vpos + pos) for pp, pos in block)
        out_steps.append((p, ()))
        new_tree = replace(t, dict(zip(dec.positions, out_subtrees)))
        return new_tree, tuple(out_steps)

    new_tree, new_steps = rec(site.base_tree, base.steps, site.at)
    return new_tree, Derivation(new_steps, new_tree, base.target)


def _linked_positions(g: Wtgc, er, p: Production, j: int) -> set:
    """Variable positions equality-linked to index j (0-based) in p."""
    dec = g.decompose(p)
    gp = er.governing[p]
    governor = gp[j + 1]
    return {dec.positions[i - 1] for i, gov in gp.items() if gov == governor}


def ensure_nonbot_child(g: Wtgc) -> Wtgc:
    """Give every non-sink production with children at least one
    non-sink child, by replacing one sink occurrence with a fresh
    self-contained twin of the sink."""
    er = eq_restriction(g)
    if er is None:
        raise PumpError("preprocessing needs an eq-restricted grammar")
    sink = er.sink
    offenders = [p for p in g.productions
                 if p.target != sink and g.decompose(p).states
                 and all(state == sink for state in g.decompose(p).states)]
    if not offenders:
        return g
    s = g.semiring
    top = Names(set(g.nonterminals) | set(g.alphabet.names()))["top"]
    productions = set(g.productions) - set(offenders)
    productions |= sink_productions(g.alphabet, top, s.one)
    for p in offenders:
        lhs = replace(p.lhs, {g.decompose(p).positions[0]: leaf(top)})
        productions.add(Production(lhs, p.target, p.weight, p.eq, p.ineq))
    final = dict(g.final)
    final[top] = s.zero
    return Wtgc(set(g.nonterminals) | {top}, g.alphabet, final, productions,
                s)


def grammar_height(g: Wtgc) -> int:
    """( |Q| + 1 ) * height(P): trees above this height pump."""
    height_p = max((p.lhs.height for p in g.productions), default=0)
    return (len(g.nonterminals) + 1) * height_p


def pump(g: Wtgc, t: Tree, d: Derivation, count: int) -> list:
    """`count` successive substitutions, each strictly increasing the
    height; g must be eq-restricted and preprocessed, the derivation
    complete to a non-sink nonterminal with nonzero weight, and the tree
    taller than `grammar_height(g)`."""
    if count < 0:
        raise PumpError(f"negative pump count {count}")
    er = eq_restriction(g)
    if er is None:
        raise PumpError("pumping needs an eq-restricted grammar")
    if d.target == er.sink:
        raise PumpError("cannot pump a sink derivation")
    if d.input != t or not replay_derivation(g, d):
        raise PumpError("the derivation does not replay on the given tree")
    if derivation_weight(g, d) == g.semiring.zero:
        raise PumpError("cannot pump a zero-weight derivation")
    if t.height <= grammar_height(g):
        raise PumpError(f"tree height {t.height} does not exceed the "
                        f"grammar height {grammar_height(g)}")
    out = []
    current_t, current_d = t, d
    for _ in range(count):
        current_t, current_d = _pump_once(g, er.sink, current_t, current_d)
        out.append((current_t, current_d))
    return out


def _pump_once(g: Wtgc, sink: str, t: Tree, d: Derivation):
    targets = {pos: p.target for p, pos in d.steps}
    deep = [pos for pos, q in targets.items() if q != sink]
    if not deep:
        raise PumpError("internal: no non-sink step position")
    star = min(deep, key=lambda pos: (-len(pos), pos))
    chain = [star[:i] for i in range(len(star) + 1)]
    chain = [pos for pos in chain if pos in targets and targets[pos] != sink]
    seen: dict[str, Position] = {}
    pair = None
    for pos in chain:
        q = targets[pos]
        if q in seen:
            pair = (seen[q], pos)
            break
        seen[q] = pos
    if pair is None:
        raise PumpError("internal: no repeated nonterminal above the "
                        "deepest non-sink position")
    shallow, deep_pos = pair
    donor_t = subtree(t, shallow)
    donor_d = incorporated(d, shallow)
    site = SubstitutionSite(g, t, d, donor_t, donor_d, deep_pos)
    new_t, new_d = substitute_derivation(site)
    if new_t.height <= t.height:
        raise PumpError("internal: substitution did not grow the tree")
    return new_t, new_d


def base_derivation(g: Wtgc, t: Tree) -> Derivation:
    """The first derivation of t with nonzero weight to a final
    nonterminal, in final-support order; the sink of an eq-restricted
    grammar has final weight zero, so it is never the target."""
    zero = g.semiring.zero
    for q in g.final_support():
        for d in derivations(g, t, q):
            if derivation_weight(g, d) != zero:
                return d
    raise PumpError("the tree has no accepting nonzero derivation")


def separation_family(n: int) -> tuple[Tree, Tree]:
    """The complete binary witness pair (t_n, t'_n): both over
    {f, fbar, g, a}, the primed tree with its left spine underlined via
    fbar; their sizes are 2^(n+1) - 1."""
    if n < 1:
        raise PumpError("the family starts at n = 1")
    t = leaf("a")
    tp = leaf("a")
    for level in range(1, n + 1):
        if level == 1:
            t, tp = Tree("g", [t, t]), Tree("g", [tp, t])
        else:
            t, tp = Tree("f", [t, t]), Tree("fbar", [tp, t])
    return t, tp
