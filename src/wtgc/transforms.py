"""Grammar-to-grammar constructions.

Everything here is a pure function from grammars to grammars: lhs
normalization, Boolean final weights, elimination of zero-weight
derivations, support extraction, constraint determination, disjoint
union, Hadamard product, the powerset disambiguation, support
restriction/complement, and relabeling of eq-restricted grammars.
Each construction is paired with a bounded evaluation oracle in the
test suite.

Zero-derivation elimination, constraint determination, the Hadamard
product, disambiguation and the productivity table compute one least
fixpoint: a nonterminal exists once every child slot of some production
is filled.  `saturate` evaluates it semi-naively for all of them, so
each builds only the nonterminals reached bottom-up, and `STATE_CAP`
bounds them all.  Constraint determination, the product and
disambiguation skip exactly the constraint sets that no node fits,
decided by one congruence closure (`_equal_children`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import TransformError
from .grammar import (
    Names,
    Production,
    Wtgc,
    classify,
    clashing,
    eq_restriction,
    equality_classes,
    sink_productions,
)
from .semiring import BOOLEAN, Semiring, SemiringHom, support_hom
from .trees import (
    RankedAlphabet,
    Tree,
    fold,
    leaf,
    replace,
    substitute,
    term_str,
)

STATE_CAP = 1_000_000
"""The most values one `saturate` call may find; one more raises
`TransformError`."""


def _mangle(t: Tree) -> str:
    """Serialized tree as a nonterminal-safe name."""
    return (term_str(t).replace("(", "[").replace(")", "]")
            .replace(",", ";"))


# -- bottom-up saturation ----------------------------------------------------


def saturate(rules: dict, fire) -> dict:
    """The least fixpoint of bottom-up rules, evaluated semi-naively
    (Bancilhon & Ramakrishnan, 1986).

    `rules` maps each rule to the tuple of pool keys its slots draw
    values from.  `fire(rule, combo)` is called exactly once for every
    combination of values of the final pools: when the combination's
    last-found value is processed, at the first slot that holds it.  It
    returns the (key, value) pairs it derives; each value is kept once.
    The result maps every pool that found a value to its values in the
    order they were found.  Finding more than `STATE_CAP` values raises
    `TransformError`.
    """
    watchers: dict = {}
    for rule, slots in rules.items():
        for i, key in enumerate(slots):
            watchers.setdefault(key, []).append((rule, i))
    pools: dict = {}
    found: list = []

    def keep(derived):
        for key, value in derived:
            pool = pools.setdefault(key, {})
            if value not in pool:
                if len(found) >= STATE_CAP:
                    raise TransformError(
                        f"construction exceeded {STATE_CAP} states")
                pool[value] = None
                found.append((key, value))

    for rule, slots in rules.items():
        if not slots:
            keep(fire(rule, ()))
    processed: dict = {}
    n = 0
    while n < len(found):
        key, value = found[n]
        n += 1
        seen = processed.setdefault(key, [])
        seen.append(value)
        for rule, i in watchers.get(key, ()):
            # slots of the same pool left of i take only older values
            ranges = [(value,) if j == i
                      else seen[:-1] if j < i and k == key
                      else processed.get(k, ())
                      for j, k in enumerate(rules[rule])]
            for combo in product(*ranges):
                keep(fire(rule, combo))
    return {key: list(pool) for key, pool in pools.items()}


@dataclass(frozen=True)
class ProductivityTable:
    productive: frozenset
    reachable: frozenset


def productivity(g: Wtgc) -> ProductivityTable:
    """Least fixpoint of `all decomposed children productive`, and the
    useful nonterminals: those reachable from the productive finals
    through productions with productive children."""
    decs = {p: g.decompose(p) for p in g.productions}
    productive = saturate({p: dec.states for p, dec in decs.items()},
                          lambda p, _: ((p.target, True),))
    below: dict[str, set] = {}
    for p, dec in decs.items():
        if all(state in productive for state in dec.states):
            below.setdefault(p.target, set()).update(dec.states)
    reachable = productive.keys() & g.final_support()
    todo = list(reachable)
    while todo:
        for state in below.get(todo.pop(), ()):
            if state not in reachable:
                reachable.add(state)
                todo.append(state)
    return ProductivityTable(frozenset(productive), frozenset(reachable))


def _equal_children(rank: int, eq, ineq) -> tuple | None:
    """The pairs (i, j) of 0-based child indices whose subtrees `eq`
    forces to be equal, each i the first child of its class; or None
    when no node of a symbol of this rank satisfies every pair of `eq`
    and fails every pair of `ineq`.

    The classes are those of `grammar.equality_classes` over `eq` and a
    pair v=v, which merges nothing, for each position v of `ineq`; a
    failing pair p=p says that p is absent.  A class is present when
    `eq` names it, or when it holds the root, a child, or the parent or
    a left sibling of a present position.  No node fits when the
    closure has no finite tree, or when a present class holds a child
    beyond the rank or both positions of a pair of `ineq`.  Otherwise
    one node fits: give each present class a fresh
    symbol whose rank is its last present step, the root the given
    symbol, and every other child a fresh leaf.  Its subtrees at two
    positions are equal exactly when both lie in one present class.
    """
    if not eq and not ineq:
        return ()
    least = equality_classes(eq | {(v, v) for pair in ineq for v in pair})
    if least is None:
        return None
    steps = {(least[v[:-1]], v[-1]): least[v] for v in least if v}
    present = {least[()], *(least[v] for pair in eq for v in pair)}
    while True:
        last = {least[()]: rank}
        for (c, i), d in steps.items():
            if d in present:
                last[c] = max(i, last.get(c, 0))
        more = {*last, *(d for (c, i), d in steps.items()
                         if i <= last.get(c, 0))}
        if more <= present:
            break
        present |= more
    if last[least[()]] > rank or any(
            least[v] == least[w] in present for v, w in ineq):
        return None
    first: dict = {}
    links = []
    for u in sorted(u for u in least if len(u) == 1):
        i = first.setdefault(least[u], u[0] - 1)
        if i != u[0] - 1:
            links.append((i, u[0] - 1))
    return tuple(links)


def weighted_productions(s: Semiring, items) -> set:
    """The productions of `((lhs, target, eq, ineq), weight)` items, one
    per key: equal keys add their weights, and a key whose weights sum
    to zero is dropped."""
    sums: dict = {}
    for key, weight in items:
        sums[key] = s.add(sums[key], weight) if key in sums else weight
    return {Production(lhs, target, weight, eq, ineq)
            for (lhs, target, eq, ineq), weight in sums.items()
            if weight != s.zero}


# -- normalization ---------------------------------------------------------


def normalize(g: Wtgc) -> Wtgc:
    """Equivalent WTAc: every lhs becomes sigma(q1...qk) by abbreviating
    proper subtrees with fresh nonterminals named after them.  Already
    normalized grammars come back unchanged.  One `fold` table for the
    grammar abbreviates each distinct proper subtree of an lhs once,
    children first, over the productions in order."""
    cls = classify(g)
    if cls.normalized:
        return g
    s = g.semiring
    names = Names(set(g.nonterminals) | set(g.alphabet.names()), _mangle)
    productions: set = set()

    def abbreviate(sub: Tree, kids: tuple) -> Tree:
        if not kids and sub.label in g.nonterminals:
            return sub
        name = names[sub]
        productions.add(Production(Tree(sub.label, kids), name, s.one))
        return leaf(name)

    done: dict = {}
    for p in g.productions:
        children = [fold(c, abbreviate, done) for c in p.lhs.children]
        productions.add(Production(Tree(p.lhs.label, children), p.target,
                                   p.weight, p.eq, p.ineq))
    return Wtgc(set(g.nonterminals) | set(names.values()), g.alphabet,
                g.final, productions, s)


def boolean_finals(g: Wtgc) -> Wtgc:
    """Equivalent grammar with final weights in {0, 1}.

    The paper gives every final-supported nonterminal q an accepting
    copy `q#f` whose productions pre-apply q's final weight, and sets
    every final weight of the input to zero.  A final weight that is
    already the semiring's one needs no copy, so only the others are
    copied: such a q keeps its final weight, and a copied q's weight
    moves to its copy.  Either way each tree keeps its weight, and every
    final weight is zero or one.  A Boolean-final input comes back
    unchanged."""
    s = g.semiring
    names = Names(set(g.nonterminals) | set(g.alphabet.names()),
                  lambda q: q + "#f")
    copies = {q: names[q] for q in g.final_support() if g.final[q] != s.one}
    if not copies:
        return g
    accepting = weighted_productions(s, (
        ((p.lhs, copies[p.target], p.eq, p.ineq),
         s.mul(p.weight, g.final[p.target]))
        for p in g.productions if p.target in copies))
    final = {q: s.zero if q in copies else w for q, w in g.final.items()}
    final.update({c: s.one for c in copies.values()})
    return Wtgc(set(final), g.alphabet, final,
                set(g.productions) | accepting, s)


# -- elimination of zero-weight derivations --------------------------------


def eliminate_zero_derivations(g: Wtgc) -> Wtgc:
    """Equivalent grammar in which every complete derivation has nonzero
    weight.

    Nonterminals are pairs of an original nonterminal and a capped
    exponent vector over the production weights that are zero divisors
    (in a commutative semiring a product of nonzero weights is zero
    exactly when its zero-divisor part is); combinations whose tracked
    product hits zero are never created.  Only pairs reachable bottom-up
    are materialized, which also keeps the sink of an eq-restricted
    input a sink.  A pair with the empty vector keeps its nonterminal's
    name, so over a zero-divisor free semiring the output is the
    productive part of the input.

    The exponent vectors are plain tuples; they add entrywise and
    saturate at the cap, which is at least each weight's preperiod.  The
    vectors whose product is zero form an upward closed set (a zero
    times anything is zero), so saturation never turns a zero product
    into a nonzero one.
    """
    s = g.semiring
    weights = () if s.zero_divisor_free else sorted(
        {p.weight for p in g.productions
         if any(s.mul(p.weight, x) == s.zero
                for x in s.elements() if x != s.zero)},
        key=s.format)
    cap = max((sum(s.power_profile(w)) for w in weights), default=0)
    units = {w: tuple(int(i == j) for j in range(len(weights)))
             for i, w in enumerate(weights)}
    zeros = (0,) * len(weights)
    nonzero: dict[tuple, bool] = {}

    names = Names(g.alphabet.names(), lambda key: (
        f"{key[0]}#[{'.'.join(map(str, key[1]))}]" if key[1] else key[0]))
    decs = {p: g.decompose(p) for p in g.productions}
    productions = set()

    def fire(p, combo):
        vec = tuple(min(sum(exps), cap)
                    for exps in zip(units.get(p.weight, zeros), *combo))
        if vec not in nonzero:
            nonzero[vec] = s.prod(
                s.power(w, e) for w, e in zip(weights, vec)) != s.zero
        if not nonzero[vec]:
            return ()
        dec = decs[p]
        lhs = replace(p.lhs, {w: leaf(names[(state, child)])
                              for state, child, w in zip(dec.states, combo,
                                                         dec.positions)})
        productions.add(Production(lhs, names[(p.target, vec)], p.weight,
                                   p.eq, p.ineq))
        return ((p.target, vec),)

    vectors = saturate({p: dec.states for p, dec in decs.items()}, fire)
    final = {names[(q, vec)]: g.final[q]
             for q, vecs in vectors.items() for vec in vecs}
    return Wtgc(set(final), g.alphabet, final, productions, s)


# -- support ----------------------------------------------------------------


def support_grammar(g: Wtgc) -> Wtgc:
    """A Boolean grammar, under g's names, whose evaluation is 1 exactly
    on the support of g; requires a zero-sum free and zero-divisor free
    semiring."""
    s = g.semiring
    if not s.zero_sum_free:
        raise TransformError(f"{s.name} is not zero-sum free")
    if not s.zero_divisor_free:
        raise TransformError(f"{s.name} is not zero-divisor free")
    h = eliminate_zero_derivations(g)
    productions = {Production(p.lhs, p.target, 1, p.eq, p.ineq)
                   for p in h.productions}
    final = {q: int(h.final[q] != s.zero) for q in h.nonterminals}
    return Wtgc(h.nonterminals, h.alphabet, final, productions, BOOLEAN)


# -- constraint determination and products ----------------------------------


def constraint_determine(g: Wtgc) -> Wtgc:
    """Equivalent WTAc in which no two productions differ only in their
    constraint sets.

    The paper gives every production p its own target `q#p`, and a
    child slot for q ranges over all productions with target q.  Only a
    clashing production (one that shares lhs and target with another of
    other constraint sets, `clashing`) needs that: here it alone gets
    `q#p`, and every other production keeps its target q, so a child
    slot for q ranges over q itself and the split targets of q's
    clashing productions.  A tree weighs at q the sum of its weights at
    those nonterminals, as in the paper's construction, so every
    weight is kept; a production that keeps its target has no clashing
    partner, so the output is constraint-determined.  Only the
    productions reached bottom-up are built.

    A tree derived to a target has the root label of one of the
    target's productions, so a combination that gives two children
    tied by p's equalities targets with no root label in common fires
    on no tree and is not built; neither is a production whose
    constraints no tree satisfies.
    """
    if not classify(g).normalized:
        raise TransformError("constraint determination needs a WTAc")
    names = Names(set(g.nonterminals) | set(g.alphabet.names()),
                  lambda p: f"{p.target}#{g.prod_id(p)}")
    clashes = clashing(g)
    split = {p: names[p] for p in g.productions if p in clashes}
    links = {p: _equal_children(len(p.lhs.children), p.eq, p.ineq)
             for p in g.productions}
    labels: dict = {}
    for p in g.productions:
        if links[p] is not None:
            labels.setdefault(split.get(p, p.target), set()).add(p.lhs.label)
    productions = set()

    def fire(p, combo):
        if any(labels[combo[i]].isdisjoint(labels[combo[j]])
               for i, j in links[p]):
            return ()
        target = split.get(p, p.target)
        lhs = Tree(p.lhs.label, [leaf(name) for name in combo])
        productions.add(Production(lhs, target, p.weight, p.eq, p.ineq))
        return ((p.target, target),)

    reached = saturate({p: g.decompose(p).states for p in g.productions
                        if links[p] is not None}, fire)
    final = {name: g.final[q] for q, found in reached.items()
             for name in found}
    return Wtgc(set(final), g.alphabet, final, productions, g.semiring)


def disjoint_union(g: Wtgc, g2: Wtgc) -> Wtgc:
    """Pointwise semiring sum of the two weighted tree languages."""
    _check_compatible(g, g2)
    s = g.semiring
    rename = Names(set(g.nonterminals) | set(g.alphabet.names()))
    leaves = {q: leaf(rename[q]) for q in sorted(g2.nonterminals)}
    productions = set(g.productions)
    for p in g2.productions:
        productions.add(Production(substitute(p.lhs, leaves),
                                   rename[p.target], p.weight, p.eq, p.ineq))
    final = dict(g.final)
    final.update({rename[q]: w for q, w in g2.final.items()})
    return Wtgc(set(final), g.alphabet, final, productions, s)


def hadamard(g: Wtgc, g2: Wtgc) -> Wtgc:
    """Pointwise semiring product, via the pair construction on WTAc
    (inputs are normalized on demand); equal pair productions add their
    weights, a pair production whose joint constraints no tree
    satisfies is not built, and only the pairs reached bottom-up through
    nonzero productions become nonterminals."""
    _check_compatible(g, g2)
    s = g.semiring
    a, b = normalize(g), normalize(g2)
    by_symbol = {}
    for p2 in b.productions:
        by_symbol.setdefault(p2.lhs.label, []).append(
            (p2, b.decompose(p2).states))
    names = Names(g.alphabet.names(), lambda xy: f"{xy[0]}*{xy[1]}")
    items = []
    for p in a.productions:
        states = a.decompose(p).states
        for p2, states2 in by_symbol.get(p.lhs.label, ()):
            eq, ineq = p.eq | p2.eq, p.ineq | p2.ineq
            if _equal_children(len(states), eq, ineq) is None:
                continue
            lhs = Tree(p.lhs.label,
                       [leaf(names[xy]) for xy in zip(states, states2)])
            items.append(((lhs, names[p.target, p2.target], eq, ineq),
                          s.mul(p.weight, p2.weight)))
    rules = {p: tuple(c.label for c in p.lhs.children)
             for p in weighted_productions(s, items)}
    reached = saturate(rules, lambda p, _: ((p.target, True),))
    productions = [p for p, slots in rules.items()
                   if all(q in reached for q in slots)]
    final = {names[xy]: s.mul(a.final[xy[0]], b.final[xy[1]])
             for xy in names if names[xy] in reached}
    return Wtgc(set(final), g.alphabet, final, productions, s)


def _check_compatible(g: Wtgc, g2: Wtgc):
    if g.semiring != g2.semiring:
        raise TransformError("semiring mismatch")
    if g.alphabet != g2.alphabet:
        raise TransformError("alphabet mismatch")


# -- disambiguation ----------------------------------------------------------


def _state_name(state: tuple, order: tuple, target: Semiring) -> str:
    if target == BOOLEAN:
        members = [q for q, v in zip(order, state) if v == 1]
        return f"set[{'.'.join(members)}]"
    inner = ".".join(f"{q}:{target.format(v)}" for q, v in zip(order, state))
    return f"phi[{inner}]"


def disambiguate(g: Wtgc, hom: SemiringHom) -> Wtgc:
    """The powerset WTAc over the homomorphism's finite target.

    States are the reachable vectors of per-nonterminal image weights,
    aligned with the sorted nonterminals; for every symbol the
    constraints appearing on that symbol are split into every
    satisfiable (satisfied, dissatisfied) bipartition, which makes the
    result unambiguous.  Every tree reaches exactly one state, so equal
    children are in equal states, and a split's equality between two
    children gets no production over children in different states.
    Only productions that fire on some tree are left out, so every tree
    still has exactly one run.  All production weights are the
    target's one.
    """
    if not classify(g).normalized:
        raise TransformError("disambiguation needs a WTAc")
    if hom.source != g.semiring:
        raise TransformError("homomorphism source mismatch")
    target = hom.target
    if not target.finite:
        raise TransformError(f"{target.name} is not finite")

    order = tuple(sorted(g.nonterminals))
    index = {q: i for i, q in enumerate(order)}
    by_symbol: dict[str, list] = {name: [] for name in g.alphabet.names()}
    collected: dict[str, set] = {name: set() for name in g.alphabet.names()}
    for p in g.productions:
        by_symbol[p.lhs.label].append(p)
        collected[p.lhs.label].update(p.eq)
        collected[p.lhs.label].update(p.ineq)

    # per satisfiable (symbol, split): the children it forces equal, and
    # for each nonterminal, the image weight and the child state indices
    # of every production that fires under the split
    terms = {}
    for name, rank in g.alphabet.symbols():
        # a set that no node fits stays unfit as it grows: extend the rest
        splits = {(frozenset(), frozenset()): ()}
        for pair in sorted(collected[name]):
            grown = [(eq | {pair}, ineq) for eq, ineq in splits]
            grown += [(eq, ineq | {pair}) for eq, ineq in splits]
            splits = {split: links for split in grown if (
                links := _equal_children(rank, *split)) is not None}
        for (eq, ineq), links in splits.items():
            terms[(name, eq, ineq)] = links, [
                [(hom(p.weight),
                  tuple(index[state] for state in g.decompose(p).states))
                 for p in by_symbol[name]
                 if p.target == q and p.eq <= eq and p.ineq <= ineq]
                for q in order]
    names = Names(g.alphabet.names(),
                  lambda state: _state_name(state, order, target))
    productions = set()

    def fire(rule, combo):
        links, weighted = terms[rule]
        if any(combo[i] != combo[j] for i, j in links):
            return ()
        values = []
        for alternatives in weighted:
            total = target.zero
            for term, slots in alternatives:
                for child, i in zip(combo, slots):
                    term = target.mul(term, child[i])
                total = target.add(total, term)
            values.append(total)
        state = tuple(values)
        name, eq, ineq = rule
        lhs = Tree(name, [leaf(names[child]) for child in combo])
        productions.add(
            Production(lhs, names[state], target.one, eq, ineq))
        return (("states", state),)

    states = saturate({rule: ("states",) * g.alphabet.rank(rule[0])
                       for rule in terms}, fire).get("states", ())
    final = {}
    for state in states:
        total = target.zero
        for q, v in zip(order, state):
            total = target.add(total, target.mul(hom(g.final[q]), v))
        final[names[state]] = total
    return Wtgc(set(final), g.alphabet, final, productions, target)


def _complete_support_automaton(g: Wtgc) -> Wtgc:
    hom = support_hom(g.semiring)  # rejects descriptors lacking a flag
    return disambiguate(eliminate_zero_derivations(normalize(g)), hom)


def support_automaton(g: Wtgc) -> Wtgc:
    """An unambiguous Boolean WTAc recognizing the support of g; needs a
    zero-sum free and zero-divisor free semiring.  It is trimmed: only
    the states that some tree of the support passes through are kept."""
    aut = _complete_support_automaton(g)
    keep = productivity(aut).reachable
    return Wtgc(keep, aut.alphabet, {q: aut.final[q] for q in keep},
                [p for p in aut.productions if p.target in keep
                 and all(c.label in keep for c in p.lhs.children)],
                BOOLEAN)


def complement_support(g: Wtgc) -> Wtgc:
    """Flip the final set of the complete, untrimmed unambiguous support
    automaton, in which every tree has exactly one run; recognizes the
    complement of the support."""
    aut = _complete_support_automaton(g)
    final = {q: 1 if aut.final[q] == 0 else 0 for q in aut.nonterminals}
    return Wtgc(aut.nonterminals, aut.alphabet, final, aut.productions,
                BOOLEAN)


def lift_boolean(g: Wtgc, s: Semiring) -> Wtgc:
    """Reinterpret a Boolean grammar in another semiring by 0 -> 0,
    1 -> 1 on weights and finals."""
    if g.semiring != BOOLEAN:
        raise TransformError("can only lift Boolean grammars")
    productions = {Production(p.lhs, p.target, s.one, p.eq, p.ineq)
                   for p in g.productions if p.weight == 1}
    final = {q: s.one if g.final[q] == 1 else s.zero
             for q in g.nonterminals}
    return Wtgc(g.nonterminals, g.alphabet, final, productions, s)


def restrict_support(g: Wtgc, g2: Wtgc) -> Wtgc:
    """The weighted language of g restricted to the support of g2:
    evaluates to g's weight inside supp(g2) and to zero outside."""
    _check_compatible(g, g2)
    return hadamard(g, lift_boolean(support_automaton(g2), g.semiring))


# -- relabeling --------------------------------------------------------------


def relabel(g: Wtgc, pi: dict[str, str],
            target_alphabet: RankedAlphabet | None = None) -> Wtgc:
    """Apply a rank-preserving symbol map to an eq-restricted positive
    classic grammar; productions that collide after relabeling have
    their weights summed, and the sink productions are regenerated over
    the target alphabet."""
    er = eq_restriction(g)
    if er is None:
        raise TransformError("relabeling needs an eq-restricted grammar")
    s = g.semiring
    ranks = {}
    for name, rank in g.alphabet.symbols():
        if name not in pi:
            raise TransformError(f"relabeling undefined on {name!r}")
        if ranks.setdefault(pi[name], rank) != rank:
            raise TransformError(f"rank mismatch at {pi[name]!r}")
    if target_alphabet is None:
        target_alphabet = RankedAlphabet(ranks)
    else:
        for name, rank in ranks.items():
            if name not in target_alphabet \
                    or target_alphabet.rank(name) != rank:
                raise TransformError(f"rank mismatch at {name!r}")

    def relabel_tree(node: Tree, kids: tuple) -> Tree:
        if not kids and node.label in g.nonterminals:
            return node
        return Tree(pi[node.label], kids)

    productions = weighted_productions(s, (
        ((fold(p.lhs, relabel_tree, {}), p.target, p.eq, p.ineq), p.weight)
        for p in g.productions if p.target != er.sink))
    productions |= sink_productions(target_alphabet, er.sink, s.one)
    return Wtgc(g.nonterminals, target_alphabet, g.final, productions, s)
