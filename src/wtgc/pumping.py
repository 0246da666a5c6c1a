"""Constraint-aware derivation substitution and pumping.

In an eq-restricted grammar the subtrees forced equal by constraints are
all held by the sink, so replacing a derived subtree means replacing its
copies along the way.  `substitute_derivation` does exactly that on the
relative steps themselves, without recursion: one walk down child slots
from the root step to the substitution position (`semantics.step_path`),
and one walk back up that splices blocks of the base's steps, the donor's
steps and the linked copies' sink derivations, each moved as it is but
for its root's slot.  `pump` uses it to grow any sufficiently tall
accepted tree into arbitrarily many taller ones, after the standard
preprocessing (`ensure_nonbot_child` plus zero-derivation elimination);
each pump step spells the positions of its base once.
"""

from __future__ import annotations

from itertools import chain

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
    absolute_steps,
    block_starts,
    derivation_weight,
    derivations,
    incorporated,
    moved_block,
    replay_derivation,
    step_path,
)
from .trees import (
    Position,
    Tree,
    leaf,
    replace,
    subtree,
)


def _sink_table(g: Wtgc, sink: str) -> dict:
    """The sink's production for each symbol."""
    return {p.lhs.label: p for p in g.productions if p.target == sink}


def _sink_steps(by_symbol: dict, t: Tree) -> tuple:
    """The unique derivation of t to the sink as a left-most step list;
    `by_symbol` is the grammar's `_sink_table`."""
    # a right-to-left pre-order, reversed, is the left-to-right post-order,
    # which is the left-most derivation order
    walk = []
    stack = [(t, ())]
    while stack:
        node, v = stack.pop()
        kids = node.children
        walk.append((node.label, v, len(kids)))
        stack.extend(zip(kids, [(i,) for i in range(1, len(kids) + 1)]))
    try:
        return tuple((by_symbol[label], v, n)
                     for label, v, n in reversed(walk))
    except KeyError as missing:
        raise PumpError(f"no sink production for symbol {missing}") from None


def substitute_derivation(g: Wtgc, base: Derivation, donor: Derivation,
                          at: Position, *,
                          replayed: bool = False) -> Derivation:
    """Replace the subtree derived at `at` in the base's input, and every
    position equality-linked to it along the derivation, by the donor's
    input, rederiving the linked copies through the sink.  The new
    derivation's input is the new tree.

    Its steps are spliced from blocks `steps[start:k + 1]` of the base,
    the donor's steps and the sink steps of the linked copies, each with
    its root step in its slot.  A base or a donor that does not replay
    raises `PumpError`; `replayed=True` says that the caller has checked
    that both do, and skips the replays: the splice reads the base as a
    well-formed derivation.
    """
    er = eq_restriction(g)
    if er is None:
        raise PumpError("substitution needs an eq-restricted grammar")
    sink = er.sink
    subtree(base.input, at)  # raises on a position outside the tree
    for role, d in (("base", base), ("donor", donor)):
        if not (replayed or replay_derivation(g, d)):
            raise PumpError(f"the {role} derivation does not replay on the "
                            f"{role} tree")

    steps = base.steps
    starts = block_starts(steps)
    levels, k, rest = step_path(base, starts, at)
    if rest or steps[k][0].target != donor.target:
        raise PumpError("no derivation to the donor's nonterminal at the "
                        "substitution position")
    if donor.target == sink or base.target == sink:
        raise PumpError("substitution endpoints must not be the sink")

    # Back up: the new subtree of each level, and the blocks left and
    # right of child j; untouched blocks are slices of the base's steps,
    # linked copies are derived through the sink.
    placed = moved_block(donor.steps, steps[k][1])
    new = donor.input
    by_symbol = _sink_table(g, sink)
    lefts, rights = [], []
    for node, k, kids, j in reversed(levels):
        linked = _linked_positions(g, er, steps[k][0], j)
        plugged, blocks, copy = {}, [], None
        for i, c in enumerate(kids):
            p, v, _ = steps[c]
            if i == j:
                plugged[v] = new
            elif p.target == sink and v in linked:
                plugged[v] = new
                copy = copy or _sink_steps(by_symbol, new)
                blocks.append(moved_block(copy, v))
            else:
                blocks.append(steps[starts[c]:c + 1])
        lefts.append(blocks[:j])
        rights += blocks[j:]
        rights.append(steps[k:k + 1])
        new = replace(node, plugged)
    lefts.reverse()
    new_steps = tuple(chain(*chain.from_iterable(lefts), placed, *rights))
    return Derivation(new_steps, new, base.target)


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
    out, current = [], d
    for _ in range(count):
        current = _pump_once(g, er.sink, current)
        out.append((current.input, current))
    return out


def _pump_once(g: Wtgc, sink: str, d: Derivation) -> Derivation:
    targets = {pos: p.target for p, pos in absolute_steps(d)}
    deep = [pos for pos, q in targets.items() if q != sink]
    if not deep:
        raise PumpError("internal: no non-sink step position")
    star = min(deep, key=lambda pos: (-len(pos), pos))
    seen: dict[str, Position] = {}
    for pos in (star[:i] for i in range(len(star) + 1)):
        q = targets.get(pos, sink)
        if q in seen:
            break
        if q != sink:
            seen[q] = pos
    else:
        raise PumpError("internal: no repeated nonterminal above the "
                        "deepest non-sink position")
    # pump replayed the first base, and a substitution into a base that
    # replays gives one that replays
    new = substitute_derivation(g, d, incorporated(d, seen[q]), pos,
                                replayed=True)
    if new.input.height <= d.input.height:
        raise PumpError("internal: substitution did not grow the tree")
    return new


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
