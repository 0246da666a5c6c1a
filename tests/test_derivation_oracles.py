"""Brute-force references for derivation replay and substitution.

`replay_by_rebuilding` rebuilds the sentential form as a tree at every
step, and `substitute_by_recursion` re-filters and re-prefixes the steps
at every level of the derivation.  Both are the plain readings of the
definitions, over steps at absolute positions as `absolute_steps` spells
them; the library's `replay_derivation` and `substitute_derivation` must
agree with them on every input below.
"""

import dataclasses

import random

import pytest

from conftest import (leftmost_key, load_grammar, random_eq_restricted,
                      random_wtgc)
from wtgc.errors import GrammarError, PumpError, WtgcError
from wtgc.grammar import eq_restriction
from wtgc.pumping import (
    _linked_positions,
    _sink_steps,
    _sink_table,
    ensure_nonbot_child,
    substitute_derivation,
)
from wtgc.semantics import (
    Derivation,
    absolute_steps,
    derivations,
    incorporated,
    replay_derivation,
)
from wtgc.transforms import eliminate_zero_derivations
from wtgc.trees import (
    dissatisfies_all,
    enumerate_trees,
    leaf,
    replace,
    satisfies_all,
    subtree,
    subtree_or_none,
    walk,
)

FIXTURES = ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6")


def replay_by_rebuilding(g, d):
    """`replay_derivation` with the sentential form rebuilt as a tree at
    every step."""
    t = d.input
    form = t
    previous = None
    for p, w in absolute_steps(d):
        try:
            g.prod_id(p)
        except GrammarError:
            return False
        if previous is not None and leftmost_key(w) <= leftmost_key(previous):
            return False
        previous = w
        at = subtree_or_none(form, w)
        if at is None or at != p.lhs:
            return False
        checked = subtree_or_none(t, w)
        if checked is None:
            return False
        if not satisfies_all(checked, p.eq):
            return False
        if not dissatisfies_all(checked, p.ineq):
            return False
        form = replace(form, {w: leaf(p.target)})
    return form == leaf(d.target)


def substitute_by_recursion(g, base, donor, at):
    """`substitute_derivation` as one recursive call per level, each
    filtering and re-prefixing the steps below it; the derivation it
    returns holds (production, absolute position) steps."""
    er = eq_restriction(g)
    if er is None:
        raise PumpError("substitution needs an eq-restricted grammar")
    sink = er.sink

    at_target = incorporated(base, at).target
    if at_target is None or at_target != donor.target:
        raise PumpError("no derivation to the donor's nonterminal at the "
                        "substitution position")
    if donor.target == sink or base.target == sink:
        raise PumpError("substitution endpoints must not be the sink")

    def rec(t, steps, w):
        if not w:
            return donor.input, absolute_steps(donor)
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
                block = absolute_steps(Derivation(
                    _sink_steps(_sink_table(g, sink), sub), sub, sink))
            else:
                sub, block = subtrees[i], blocks[i]
            out_subtrees.append(sub)
            out_steps.extend((pp, vpos + pos) for pp, pos in block)
        out_steps.append((p, ()))
        new_tree = replace(t, dict(zip(dec.positions, out_subtrees)))
        return new_tree, tuple(out_steps)

    new_tree, new_steps = rec(base.input, absolute_steps(base), at)
    return Derivation(new_steps, new_tree, base.target)


def all_derivations(g, max_size):
    """Every derivation of every tree of size <= max_size, to every
    nonterminal."""
    return [d for t in enumerate_trees(g.alphabet, max_size)
            for q in sorted(g.nonterminals) for d in derivations(g, t, q)]


def mutations(g, d, rng):
    """d and six broken copies of it: a step dropped, two adjacent steps
    swapped, a step's production replaced, a step moved one level
    deeper, a step duplicated, and a wrong target."""
    steps = d.steps

    def variant(new_steps, target=d.target):
        return Derivation(tuple(new_steps), d.input, target)

    out = [d]
    k = rng.randrange(len(steps))
    p, w, n = steps[k]
    out.append(variant(steps[:k] + steps[k + 1:]))
    if len(steps) > 1:
        i = rng.randrange(len(steps) - 1)
        out.append(variant(steps[:i] + (steps[i + 1], steps[i])
                           + steps[i + 2:]))
    others = sorted((x for x in g.productions if x != p), key=g.prod_id)
    if others:
        other = rng.choice(others)
        out.append(variant(steps[:k] + ((other, w, n),) + steps[k + 1:]))
    out.append(variant(steps[:k] + ((p, w + (1,), n),) + steps[k + 1:]))
    out.append(variant(steps[:k + 1] + steps[k:]))
    wrong = sorted(q for q in g.nonterminals if q != d.target)
    if wrong:
        out.append(variant(steps, rng.choice(wrong)))
    return out


def replay_cases():
    """(name, grammar, size) for the fixtures and 30 seeds of each random
    family."""
    cases = [(name, load_grammar(name), 6) for name in FIXTURES]
    cases += [(f"random_wtgc({seed})", random_wtgc(seed), 5)
              for seed in range(30)]
    cases += [(f"random_eq_restricted({seed})", random_eq_restricted(seed), 6)
              for seed in range(30)]
    return cases


def test_replay_matches_the_rebuilding_reference():
    checked = accepted = 0
    for seed, (name, g, size) in enumerate(replay_cases()):
        rng = random.Random(seed)
        for d in all_derivations(g, size):
            for m in mutations(g, d, rng):
                expected = replay_by_rebuilding(g, m)
                assert replay_derivation(g, m) == expected, (name, m)
                checked += 1
                accepted += expected
    # the valid derivations replay, and most mutations are rejected
    assert 2000 < accepted < checked // 2, (accepted, checked)


def substitution_grammars():
    """(name, grammar, base size): fx4, its pumping preparation, and 30
    seeds of eq-restricted random grammars."""
    fx4 = load_grammar("fx4")
    gs = [("fx4", fx4, 9),
          ("fx4 prepared",
           eliminate_zero_derivations(ensure_nonbot_child(fx4)), 9)]
    gs += [(f"random_eq_restricted({seed})", random_eq_restricted(seed), 5)
           for seed in range(30)]
    return gs


def spread_of_donors(g, size):
    """Per nonterminal, derivations of trees of growing size: the first
    derivation found at each size up to `size`."""
    donors = {}
    for t in enumerate_trees(g.alphabet, size):
        for q in sorted(g.nonterminals):
            for d in derivations(g, t, q)[:1]:
                donors.setdefault((q, t.size), (t, d))
    return list(donors.values())


def substitute_spelled(*args):
    """`substitute_derivation` with its steps spelled by `absolute_steps`,
    as `substitute_by_recursion` returns them."""
    d = substitute_derivation(*args)
    return dataclasses.replace(d, steps=absolute_steps(d))


def outcome(fn, *args):
    try:
        d = fn(*args)
    except (WtgcError, LookupError) as exc:
        return type(exc), str(exc)
    return d.input, d.steps, d.target


@pytest.mark.parametrize("name,g,size", [
    pytest.param(*case, id=case[0]) for case in substitution_grammars()])
def test_substitution_matches_the_recursive_reference(name, g, size):
    donors = spread_of_donors(g, 4)
    substituted = 0
    for base_tree in enumerate_trees(g.alphabet, size):
        for q in sorted(g.nonterminals):
            for base in derivations(g, base_tree, q)[:1]:
                outside = (len(base_tree.children) + 1,)
                for at in [w for w, _ in walk(base_tree)] + [outside]:
                    for _, donor in donors:
                        site = (g, base, donor, at)
                        got = outcome(substitute_spelled, *site)
                        assert got == outcome(substitute_by_recursion,
                                              *site), (name, site)
                        substituted += not isinstance(got[0], type)
    assert substituted, name


@pytest.mark.parametrize("name,g,size", [
    pytest.param(*case, id=case[0]) for case in substitution_grammars()])
def test_substitution_rejects_exactly_the_bases_that_do_not_replay(
        name, g, size):
    # the splice reads a base as well-formed, so a base that does not
    # replay must be turned away before it, wherever the donor goes
    (_, donor), *_ = spread_of_donors(g, 4)
    rng = random.Random(size)
    rejected = 0
    for base_tree in enumerate_trees(g.alphabet, size):
        for q in sorted(g.nonterminals):
            for base in derivations(g, base_tree, q)[:1]:
                for m in mutations(g, base, rng):
                    replays = replay_by_rebuilding(g, m)
                    for at, _ in walk(base_tree):
                        try:
                            substitute_derivation(g, m, donor, at)
                        except PumpError as exc:
                            turned_away = "does not replay" in str(exc)
                        else:
                            turned_away = False
                        assert turned_away == (not replays), (name, m, at)
                        rejected += turned_away
    assert rejected, name
