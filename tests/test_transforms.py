import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from operator import and_, or_

import pytest

from conftest import (
    gammas,
    load_grammar,
    random_eq_restricted,
    random_ne_wtgc,
    random_wtgc,
    t,
    with_clashing_twin,
)
from wtgc import transforms
from wtgc.errors import SemiringError, TransformError
from wtgc.grammar import (
    Production,
    Wtgc,
    clashing,
    classify,
    eq_restriction,
    equality_classes,
    make_constraints,
    production_str,
    sink_productions,
)
from wtgc.homomorphism import (
    hom_image_stage_one,
    image_grammar,
    relabeling_hom,
)
from wtgc.pumping import ensure_nonbot_child
from wtgc.semantics import (
    check_unambiguous_upto,
    derivation_weight,
    derivations,
    evaluate,
    state_weight,
)
from wtgc.semiring import (ARCTIC, BOOLEAN, NATURAL, IntegersMod, Semiring,
                           support_hom)
from wtgc.syntax import parse_grammar, serialize_grammar
from wtgc.transforms import (
    boolean_finals,
    complement_support,
    constraint_determine,
    disambiguate,
    disjoint_union,
    eliminate_zero_derivations,
    hadamard,
    normalize,
    productivity,
    relabel,
    restrict_support,
    saturate,
    support_automaton,
    support_grammar,
)
from wtgc.trees import (
    RankedAlphabet,
    Tree,
    dissatisfies_all,
    enumerate_trees,
    leaf,
    satisfies,
    satisfies_all,
    term_str,
)

ALPHA = leaf("alpha")
ZERO_DIVISOR_FREE_FIXTURES = ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5")


def assert_equivalent(g, h, size):
    for tree in enumerate_trees(g.alphabet, size):
        assert evaluate(g, tree) == evaluate(h, tree), term_str(tree)


def assert_sums_preimages(g, pi, out, size):
    """out weighs each tree with the sum of g's weights over the trees
    that the symbol map pi relabels to it."""
    sources = {}
    for name in g.alphabet.names():
        sources.setdefault(pi[name], []).append(name)

    def preimages(u):
        options = [list(preimages(c)) for c in u.children]
        for name in sources.get(u.label, ()):
            for combo in product(*options):
                yield Tree(name, combo)

    for u in enumerate_trees(out.alphabet, size):
        expected = g.semiring.sum(evaluate(g, x) for x in preimages(u))
        assert evaluate(out, u) == expected, term_str(u)


def prods(g):
    return {production_str(p, g.semiring) for p in g.productions}


# -- saturation ------------------------------------------------------------


def test_saturate_fires_each_combination_once():
    # "pair" draws both slots from one pool; "b" gets its one value only
    # after "a" is complete, so "late" fires late; "leaves" and "again"
    # have no slots, and both derive the value 1
    rules = {"leaves": (), "again": (), "pair": ("a", "a"), "step": ("a",),
             "late": ("b", "a")}
    derive = {
        "leaves": lambda combo: [("a", 0), ("a", 1)],
        "again": lambda combo: [("a", 1)],
        "pair": lambda combo: [("a", (combo[0] + combo[1]) % 3)],
        "step": lambda combo: [("b", "x")] if combo == (2,) else [],
        "late": lambda combo: [],
    }
    calls = []

    def fire(rule, combo):
        calls.append((rule, combo))
        return derive[rule](combo)

    pools = saturate(rules, fire)
    assert pools == {"a": [0, 1, 2], "b": ["x"]}
    expected = [(rule, combo) for rule, slots in rules.items()
                for combo in product(*(pools[key] for key in slots))]
    assert Counter(calls) == Counter(expected)


def test_constructions_stop_at_the_state_cap(monkeypatch, fx6, fx2_union):
    monkeypatch.setattr(transforms, "STATE_CAP", 1)
    builds = (lambda: eliminate_zero_derivations(fx6),
              lambda: hadamard(fx6, fx6),
              lambda: disambiguate(fx2_union, support_hom(ARCTIC)))
    for build in builds:
        with pytest.raises(TransformError, match="exceeded 1 states"):
            build()


# -- normalize ---------------------------------------------------------------


def test_normalize_example1_structure(fx1):
    out = normalize(fx1)
    assert classify(out).normalized
    assert classify(out).positive
    assert not classify(out).classic  # the constraint now reaches below
    assert prods(out) == {
        "alpha -> q @ 0",
        "gamma(q) -> q @ 1",
        "gamma(q) -> gamma[q] @ 0",  # fresh abbreviation, weight one
        "sigma(gamma[q],q) -> q' [eq 1.1=2] @ 1",
    }


def test_normalize_idempotent(fx3):
    assert normalize(fx3) is fx3


def test_normalize_equivalent(fx1, fx4, fx5):
    for g in (fx1, fx4, fx5):
        assert_equivalent(g, normalize(g), 8)


# -- boolean finals ----------------------------------------------------------


def test_boolean_finals_flags_and_equivalence(fx1, fx3, fx6):
    for g in (fx1, fx3, fx6):
        out = boolean_finals(g)
        cls_in, cls_out = classify(g), classify(out)
        assert cls_out.boolean_final
        assert cls_out.normalized == cls_in.normalized
        assert cls_out.positive == cls_in.positive
        assert cls_out.classic == cls_in.classic
        assert (out == g) == cls_in.boolean_final
        assert_equivalent(g, out, 8)


def test_boolean_finals_all_zero():
    alphabet = RankedAlphabet({"alpha": 0})
    g = Wtgc({"q"}, alphabet, {}, [Production(ALPHA, "q", 1)], NATURAL)
    out = boolean_finals(g)
    assert evaluate(out, ALPHA) == 0


# -- zero-derivation elimination ---------------------------------------------


def test_eliminate_zero_trivial_copy(fx1):
    out = eliminate_zero_derivations(fx1)
    # zero-divisor free: no weight is tracked and every name stays
    assert out == fx1
    assert_equivalent(fx1, out, 8)


def _productive_part(g):
    keep = productivity(g).productive
    return Wtgc(keep, g.alphabet, {q: g.final[q] for q in keep},
                [p for p in g.productions
                 if keep.issuperset(g.decompose(p).states)], g.semiring)


def test_eliminate_zero_without_zero_divisors_keeps_the_productive_part():
    grammars = [load_grammar(name) for name in ZERO_DIVISOR_FREE_FIXTURES]
    grammars.append(support_grammar(grammars[0]))  # Boolean
    grammars += [g for g in map(random_wtgc, range(60))
                 if g.semiring.zero_divisor_free]
    grammars += map(random_eq_restricted, range(30))
    assert {g.semiring for g in grammars} == {NATURAL, ARCTIC, BOOLEAN}
    for g in grammars:
        assert eliminate_zero_derivations(g) == _productive_part(g)


def test_eliminate_zero_ignores_unit_weights():
    # 3 is a unit of zmod 4: no power of it is zero, so nothing splits
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = Wtgc({"q"}, alphabet, {"q": 1},
             [Production(ALPHA, "q", 3),
              Production(t("gamma", leaf("q")), "q", 3)], IntegersMod(4))
    out = eliminate_zero_derivations(g)
    assert out.nonterminals == {"q"}
    assert out == g


def test_eliminate_zero_prunes_zero_divisors(fx6):
    out = eliminate_zero_derivations(fx6)
    assert_equivalent(fx6, out, 8)
    zero = out.semiring.zero
    for tree in enumerate_trees(out.alphabet, 8):
        for q in sorted(out.nonterminals):
            for d in derivations(out, tree, q):
                assert derivation_weight(out, d) != zero
    # the input does have complete derivations of weight zero
    witness = gammas(2, ALPHA)
    ds = derivations(fx6, witness, "q")
    assert ds and all(derivation_weight(fx6, d) == 0 for d in ds)


def test_eliminate_zero_preserves_flags(fx6):
    out = eliminate_zero_derivations(boolean_finals(fx6))
    cls = classify(out)
    assert cls.normalized and cls.positive and cls.classic
    assert cls.boolean_final


def test_eliminate_zero_preserves_eq_restriction(fx4):
    out = eliminate_zero_derivations(fx4)
    assert eq_restriction(out) is not None


# -- support -----------------------------------------------------------------


def test_support_grammar_example1(fx1):
    out = support_grammar(fx1)
    assert out.semiring == BOOLEAN
    assert out.nonterminals == fx1.nonterminals  # the input's names
    assert {q: out.final[q] for q in out.nonterminals} == {"q": 0, "q'": 1}
    assert prods(out) == {"alpha -> q @ 1", "gamma(q) -> q @ 1",
                          "sigma(gamma(q),q) -> q' [eq 1.1=2] @ 1"}
    for tree in enumerate_trees(fx1.alphabet, 8):
        member = evaluate(fx1, tree) != fx1.semiring.zero
        assert evaluate(out, tree) == (1 if member else 0)


def test_support_grammar_reads_back():
    # fx6 and the zmod 4 seeds are not zero-sum free
    grammars = [load_grammar(name) for name in ZERO_DIVISOR_FREE_FIXTURES]
    grammars += [g for g in map(random_wtgc, range(60))
                 if g.semiring.zero_sum_free]
    for g in grammars:
        out = support_grammar(g)
        assert out.nonterminals <= g.nonterminals
        assert parse_grammar(serialize_grammar(out)) == out
        for tree in enumerate_trees(g.alphabet, 4):
            member = evaluate(g, tree) != g.semiring.zero
            assert evaluate(out, tree) == int(member), term_str(tree)


def test_support_grammar_needs_zero_sum_freeness(fx6):
    with pytest.raises(TransformError, match="not zero-sum free"):
        support_grammar(fx6)


def test_support_grammar_needs_zero_divisor_freeness():
    # a descriptor lacking the flag
    flagless = Semiring("boolean", 0, 1, or_, and_, elements=(0, 1),
                        zero_divisor_free=False)
    g = Wtgc({"q"}, RankedAlphabet({"alpha": 0}), {"q": 1},
             [Production(ALPHA, "q", 1)], flagless)
    with pytest.raises(TransformError, match="not zero-divisor free"):
        support_grammar(g)


# -- constraint determination ------------------------------------------------


@pytest.mark.parametrize("rank, eq, ineq, links", [
    # an equality with a proper prefix
    (2, [((1,), (1, 1))], [], None),
    (2, [((), (2,))], [], None),
    # a first step beyond the rank
    (2, [((1,), (3,))], [], None),
    (2, [((1,), (3, 1))], [], None),
    # an inequality inside one class, directly or by transitivity
    (2, [((1,), (2,))], [((1,), (2,))], None),
    (3, [((1,), (2,)), ((2,), (3,))], [((1,), (3,))], None),
    (3, [((1, 1), (2,)), ((2,), (3, 2))], [((3, 2), (1, 1))], None),
    # an equality at or below a position the inequalities call absent
    (2, [((1, 1), (2,))], [((1, 1), (1, 1))], None),
    (2, [((1, 1, 2), (2,))], [((1, 1), (1, 1))], None),
    # the root or a child called absent
    (2, [], [((), ())], None),
    (2, [], [((2,), (2,))], None),
    # an absence carried across a class: 2.1 is there, so 1.1 is too
    (3, [((1,), (2,)), ((2, 1), (3,))], [((1, 1), (1, 1))], None),
    (2, [((1,), (2,)), ((2, 1), (2, 1))], [((1, 1), (1, 1))], None),
    # a cycle by congruence (2.1 = 1.1.1, so 1 = 1.1.1) or transitivity
    (2, [((1,), (2, 1)), ((2,), (1, 1))], [], None),
    (2, [((1,), (2,)), ((1,), (2, 1))], [], None),
    # a second child without a first
    (1, [((1, 2), (1, 2))], [((1, 1), (1, 1))], None),
    # satisfiable: each linked child points at the first child of its
    # class, which need not hold the class's least position
    (2, [], [((3,), (3,)), ((1, 1), (1, 1))], ()),
    (2, [((1,), (2,))], [((2, 1), (2, 1))], ((0, 1),)),
    (3, [((1,), (3,)), ((2, 1), (3,))], [((1,), (2,))], ((0, 2),)),
    (3, [((2,), (3,)), ((1, 1), (2,))], [((1,), (2,))], ((1, 2),)),
    (3, [((3,), (2,)), ((2,), (1,))], [((1, 1), (2, 1))], ((0, 1), (0, 2))),
])
def test_equal_children(rank, eq, ineq, links):
    got = transforms._equal_children(rank, make_constraints(eq),
                                     make_constraints(ineq))
    assert got == links


def fitting_node(rank, eq, ineq):
    """The node of `_equal_children`'s docstring for a set it accepts:
    the root `root`, a symbol `c<class>` for every other present class,
    and the leaf `x` wherever no pair looks."""
    least = equality_classes(eq | {(v, v) for pair in ineq for v in pair}
                             | {((), ())})
    root = least[()]
    present = {root} | {least[v] for pair in eq for v in pair}
    while True:  # add the parents and left siblings of present classes
        arity = {root: rank}
        for v in least:
            if v and least[v] in present:
                c = least[v[:-1]]
                arity[c] = max(arity.get(c, 0), v[-1])
        grown = present | set(arity) | {
            least[v] for v in least
            if v and v[-1] <= arity.get(least[v[:-1]], 0)}
        if grown == present:
            break
        present = grown

    def build(c, above=()):
        assert c not in above, "a class lies below itself"
        below = {v[-1]: least[v] for v in least if v and least[v[:-1]] == c}
        return Tree("root" if c == root else f"c{c}",
                    [build(below[i], above + (c,)) if i in below
                     else leaf("x") for i in range(1, arity.get(c, 0) + 1)])

    return build(root)


# the children of the bounded search for a node that fits a set
SMALL_CHILDREN = tuple(enumerate_trees(
    RankedAlphabet({"a": 0, "b": 0, "g": 1, "f": 2, "h": 3}), 5))


def satisfied_masks(rank, pairs):
    """For every node `root` of the rank over children of up to 5 nodes,
    the bit mask of the pairs it satisfies."""
    return {sum(1 << k for k, pair in enumerate(pairs)
                if satisfies(node, pair))
            for node in (Tree("root", kids)
                         for kids in product(SMALL_CHILDREN, repeat=rank))}


def test_equal_children_is_exact_on_small_sets():
    # every set of 1-3 pairs, each `eq` or `ne`, over the positions with
    # steps of at most 2 and depth at most 2, at ranks 0-2: a set that
    # the check accepts is fitted by the docstring's node, and no node of
    # the bounded search fits a set that it rejects
    positions = sorted([(), (1,), (2,), *product((1, 2), repeat=2)])
    pairs = list(combinations_with_replacement(positions, 2))
    items = [(pair, ne) for pair in pairs for ne in (False, True)]
    accepted = 0
    for rank in range(3):
        fits = set()
        for mask in satisfied_masks(rank, pairs):
            allowed = [(pair, not mask >> k & 1)
                       for k, pair in enumerate(pairs)]
            for n in (1, 2, 3):
                fits.update(combinations(allowed, n))
        for n in (1, 2, 3):
            for chosen in combinations(items, n):
                eq = frozenset(pair for pair, ne in chosen if not ne)
                ineq = frozenset(pair for pair, ne in chosen if ne)
                if transforms._equal_children(rank, eq, ineq) is None:
                    assert chosen not in fits, (rank, chosen)
                    continue
                accepted += 1
                node = fitting_node(rank, eq, ineq)
                assert satisfies_all(node, eq), (rank, chosen)
                assert dissatisfies_all(node, ineq), (rank, chosen)
    assert accepted == 19_662


def test_equal_children_is_exact_on_the_random_splits():
    # every split of every symbol's pairs in the normalized random
    # grammars, whether disambiguation lists it or not
    grammars = [*map(random_wtgc, range(60)),
                *map(random_eq_restricted, range(100)),
                *map(random_ne_wtgc, range(40))]
    splits = set()
    for g in map(normalize, grammars):
        for name, rank in g.alphabet.symbols():
            pairs = sorted({pair for p in g.productions
                            if p.lhs.label == name for pair in p.eq | p.ineq})
            for ne in product((False, True), repeat=len(pairs)):
                splits.add((rank, tuple(zip(pairs, ne))))
    universe = sorted({pair for _, chosen in splits for pair, _ in chosen})
    bit = {pair: 1 << k for k, pair in enumerate(universe)}
    masks = {rank: satisfied_masks(rank, universe) for rank in range(3)}
    rejected = 0
    for rank, chosen in sorted(splits):
        eq = frozenset(pair for pair, ne in chosen if not ne)
        ineq = frozenset(pair for pair, ne in chosen if ne)
        if transforms._equal_children(rank, eq, ineq) is None:
            rejected += 1
            need = sum(bit[pair] for pair in eq)
            refuse = sum(bit[pair] for pair in ineq)
            assert all(mask & need != need or mask & refuse
                       for mask in masks[rank]), (rank, chosen)
            continue
        node = fitting_node(rank, eq, ineq)
        assert satisfies_all(node, eq), (rank, chosen)
        assert dissatisfies_all(node, ineq), (rank, chosen)
    assert (len(splits), rejected) == (1491, 1237)


def test_constraint_determine(fx2g, fx3):
    for g in (fx2g, fx3):
        out = constraint_determine(g)
        assert classify(out).constraint_determined
        assert_equivalent(g, out, 7)
        c = len(g.productions)
        r = g.alphabet.max_rank()
        assert len(out.productions) <= c ** (r + 1)


def test_constraint_determine_splits_twins():
    alphabet = RankedAlphabet({"alpha": 0, "sigma": 2})
    twins = Wtgc(
        {"q"}, alphabet, {"q": 1},
        [Production(ALPHA, "q", 1),
         Production(t("sigma", leaf("q"), leaf("q")), "q", 1,
                    [((1,), (2,))]),
         Production(t("sigma", leaf("q"), leaf("q")), "q", 1)],
        NATURAL)
    assert not classify(twins).constraint_determined
    out = constraint_determine(twins)
    assert classify(out).constraint_determined
    assert_equivalent(twins, out, 7)


def test_constraint_determine_builds_only_reached_productions(fx1):
    # nothing of normalize(fx1) clashes, so every production keeps its
    # target; the paper's construction made one nonterminal per
    # (q, production) pair, 12 nonterminals and 25 productions, and
    # splitting every production reached gave 4 and 7
    n = normalize(fx1)
    out = constraint_determine(n)
    assert (len(out.nonterminals), len(out.productions)) == (3, 4)
    assert out == n


def test_constraint_determine_skips_unequal_labels(fx2g):
    # fx2g with a twin of `sigma(q,q) -> q` without its equality and a
    # twin of `gamma(q) -> q` over a leaf: the four twins clash and are
    # split, so q keeps only `alpha -> q`, and `sigma(q,q) -> q [eq 1=2]`
    # gets no production over two targets with no root label in common
    # (q and a split, or a gamma split and a sigma split), 45
    # productions of the 61 that every combination would give
    g = Wtgc(fx2g.nonterminals, fx2g.alphabet, fx2g.final,
             [*fx2g.productions,
              Production(t("sigma", leaf("q"), leaf("q")), "q", 1),
              Production(t("gamma", leaf("q")), "q", 1, (),
                         [((1, 1), (1, 1))])],
             fx2g.semiring)
    out = constraint_determine(g)
    assert (len(out.nonterminals), len(out.productions)) == (5, 45)
    assert_equivalent(g, out, 7)


def test_determination_and_boolean_finals_read_back():
    # no fixture clashes, so each normalized fixture determines to
    # itself, and only fx6 has a final weight other than zero and one
    for name in ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6"):
        g = load_grammar(name)
        outs = [constraint_determine(normalize(g))]
        assert outs[0] == normalize(g)
        if name != "fx6":
            outs.append(boolean_finals(g))
        for out in outs:
            assert parse_grammar(serialize_grammar(out)) == out


def test_determine_and_product_random():
    for seed in range(30):
        g = normalize(random_wtgc(seed))
        determined = constraint_determine(g)
        square = hadamard(g, g)
        for out in (determined, square):
            assert out.nonterminals <= productivity(out).productive
        for tree in enumerate_trees(g.alphabet, 6):
            weight = evaluate(g, tree)
            assert evaluate(determined, tree) == weight, (seed, tree)
            assert evaluate(square, tree) == g.semiring.mul(weight, weight)


def test_constraint_determine_rejects_unnormalized(fx1):
    with pytest.raises(TransformError):
        constraint_determine(fx1)


# p2 and p3 clash; the nonterminal `q#p2` is spelled like p2's fresh
# target, and only tau derives to it
SPELLED_LIKE_A_SPLIT = Wtgc(
    {"q", "q#p2"}, RankedAlphabet({"alpha": 0, "sigma": 2, "tau": 0}),
    {"q": 1, "q#p2": 2},
    [Production(ALPHA, "q", 1),
     Production(t("sigma", leaf("q"), leaf("q")), "q", 1),
     Production(t("sigma", leaf("q"), leaf("q")), "q", 3, [((1,), (2,))]),
     Production(leaf("tau"), "q#p2", 2)],
    NATURAL)


# clashes under two root labels: the twins of gamma and those of delta
# are split, and q also derives gamma trees through the unsplit
# gamma(r); sigma's equality ties a child derived to q with a gamma
# split, its inequality a gamma split with a delta split
MIXED_CLASHES = """semiring nat
alphabet alpha:0 gamma:1 delta:1 sigma:2
nonterminals q r
final q = 1
final r = 2
prod alpha -> q @ 1
prod alpha -> r @ 1
prod gamma(r) -> q @ 1
prod gamma(q) -> q @ 2
prod gamma(q) -> q [ne 1.1=1.1] @ 1
prod delta(q) -> q @ 1
prod delta(q) -> q [eq 1.1=1.1] @ 2
prod sigma(q,q) -> q [eq 1=2] @ 1
prod sigma(q,q) -> r [ne 1=2] @ 3
"""


def test_determination_and_boolean_finals_match_the_oracle():
    """Constraint determination and Boolean finals against the input's
    own weights on every tree of size 5 or less, on random normalized
    grammars with and without a clashing twin."""
    grammars = [SPELLED_LIKE_A_SPLIT, parse_grammar(MIXED_CLASHES)]
    for seed in range(40):
        for g in (normalize(random_wtgc(seed)),
                  normalize(random_ne_wtgc(seed))):
            grammars += [g, with_clashing_twin(g, seed)]
    for g in grammars:
        s = g.semiring
        determined, finals = constraint_determine(g), boolean_finals(g)
        assert classify(determined).constraint_determined
        assert classify(finals).boolean_final
        # a name the input lacks is `q#p<id>` of a clashing production,
        # primed until it is fresh
        split = {f"{p.target}#{g.prod_id(p)}" for p in clashing(g)}
        for q in determined.nonterminals - g.nonterminals:
            assert q.rstrip("'") in split, (serialize_grammar(g), q)
        copied = finals.nonterminals - g.nonterminals
        assert len(copied) == sum(g.final[q] != s.one
                                  for q in g.final_support())
        for tree in enumerate_trees(g.alphabet, 5):
            w = evaluate(g, tree)
            assert evaluate(determined, tree) == w, \
                (serialize_grammar(g), term_str(tree))
            assert evaluate(finals, tree) == w, \
                (serialize_grammar(g), term_str(tree))


# -- union and product -------------------------------------------------------


def test_disjoint_union_example(fx2g, fx2gp):
    u = disjoint_union(fx2g, fx2gp)
    tree = t("sigma", gammas(1, ALPHA), gammas(1, ALPHA))
    assert evaluate(u, tree) == 4  # max(4, 3)
    for tree in enumerate_trees(fx2g.alphabet, 8):
        assert evaluate(u, tree) == fx2g.semiring.add(
            evaluate(fx2g, tree), evaluate(fx2gp, tree))


def test_union_with_empty_grammar(fx2g):
    empty = Wtgc(set(), fx2g.alphabet, {}, [], ARCTIC)
    assert_equivalent(fx2g, disjoint_union(fx2g, empty), 8)


def test_hadamard_example(fx2g, fx2gp):
    prod = hadamard(fx2g, fx2gp)
    tree = t("sigma", gammas(1, ALPHA), gammas(1, ALPHA))
    assert evaluate(prod, tree) == 7  # 3*|gammas| + |sigmas|
    # the example's single-pair-state product grammar
    assert prods(prod) == {
        "alpha -> q*z @ 0",
        "gamma(q*z) -> q*z [ne 1.1=1.2] @ 3",
        "sigma(q*z,q*z) -> q*z [eq 1=2] @ 1",
    }
    assert classify(prod).positive is False
    for tree in enumerate_trees(fx2g.alphabet, 9):
        assert evaluate(prod, tree) == fx2g.semiring.mul(
            evaluate(fx2g, tree), evaluate(fx2gp, tree))


def test_hadamard_with_all_one_automaton(fx2g):
    alphabet = fx2g.alphabet
    everything = Wtgc(
        {"u"}, alphabet, {"u": 0},
        [Production(ALPHA, "u", 0),
         Production(t("gamma", leaf("u")), "u", 0),
         Production(t("sigma", leaf("u"), leaf("u")), "u", 0)],
        ARCTIC)
    assert_equivalent(fx2g, hadamard(fx2g, everything), 7)


def test_hadamard_preserves_positive_and_classic(fx2g):
    out = hadamard(fx2g, fx2g)
    cls = classify(out)
    assert cls.positive and cls.classic


def test_hadamard_rejects_mismatch(fx2g, fx4):
    with pytest.raises(TransformError):
        hadamard(fx2g, fx4)


def test_hadamard_normalizes_on_demand(fx1, fx2g):
    out = hadamard(fx1, fx2g)
    for tree in enumerate_trees(fx1.alphabet, 7):
        assert evaluate(out, tree) == ARCTIC.mul(
            evaluate(fx1, tree), evaluate(fx2g, tree))


# -- disambiguation ----------------------------------------------------------


@pytest.fixture(scope="module")
def fx2_union(fx2g, fx2gp):
    return disjoint_union(fx2g, fx2gp)


@pytest.fixture(scope="module")
def fx2_disambiguated(fx2_union):
    return disambiguate(fx2_union, support_hom(ARCTIC))


def test_disambiguate_matches_example_table(fx2_disambiguated):
    out = fx2_disambiguated
    full = "set[q.z]"

    def name(members):
        return "set[" + ".".join(sorted(members)) + "]"

    seen_states = {n for n in out.nonterminals}
    assert full in seen_states
    for p in out.productions:
        members = []
        for child in p.lhs.children:
            assert child.label in seen_states
            members.append(set(child.label[4:-1].split(".")) - {""})
        target = set(p.target[4:-1].split(".")) - {""}
        assert p.weight == 1
        if p.lhs.label == "alpha":
            assert p.target == full and not p.eq and not p.ineq
        elif p.lhs.label == "gamma":
            pair = ((1, 1), (1, 2))
            if p.eq:
                assert p.eq == frozenset([pair]) and not p.ineq
                assert target == members[0] & {"q"}
            else:
                assert p.ineq == frozenset([pair])
                assert target == members[0]
        else:
            pair = ((1,), (2,))
            if p.eq:
                assert p.eq == frozenset([pair]) and not p.ineq
                assert target == members[0] & members[1]
            else:
                assert p.ineq == frozenset([pair])
                assert target == members[0] & members[1] & {"z"}
    for q in out.nonterminals:
        members = set(q[4:-1].split(".")) - {""}
        assert out.final[q] == (1 if members else 0)


def test_disambiguate_unambiguous_and_correct(fx2_union, fx2_disambiguated):
    h = support_hom(ARCTIC)
    assert check_unambiguous_upto(fx2_disambiguated, 8) is None
    for tree in enumerate_trees(fx2_union.alphabet, 7):
        assert evaluate(fx2_disambiguated, tree) \
            == h(evaluate(fx2_union, tree))


def test_disambiguate_state_vector_invariant(fx2_union, fx2_disambiguated):
    h = support_hom(ARCTIC)
    order = sorted(fx2_union.nonterminals)
    for tree in enumerate_trees(fx2_union.alphabet, 6):
        per_state = {q: derivations(fx2_disambiguated, tree, q)
                     for q in sorted(fx2_disambiguated.nonterminals)}
        # every tree has exactly one complete left-most derivation overall
        assert sum(len(ds) for ds in per_state.values()) == 1
        (hit,) = [q for q, ds in per_state.items() if ds]
        members = set(hit[4:-1].split(".")) - {""}
        expected = {q for q in order
                    if h(state_weight(fx2_union, q, tree)) == 1}
        assert members == expected


def test_disambiguate_equal_arms_reach_full_state(fx2_union,
                                                  fx2_disambiguated):
    tree = t("sigma", gammas(1, ALPHA), gammas(1, ALPHA))
    hits = [q for q in sorted(fx2_disambiguated.nonterminals)
            if derivations(fx2_disambiguated, tree, q)]
    assert hits == ["set[q.z]"]
    assert fx2_disambiguated.final["set[q.z]"] == 1
    assert evaluate(fx2_disambiguated, tree) == 1


def test_disambiguate_rejects_infinite_target(fx2_union):
    from wtgc.semiring import SemiringHom

    raw = SemiringHom(ARCTIC, NATURAL, lambda a: 0)
    with pytest.raises(TransformError):
        disambiguate(fx2_union, raw)


def test_disambiguate_identity_over_finite_semiring(fx6):
    # over a finite semiring the identity map yields an equivalent
    # unambiguous automaton; `deep` constrains positions two levels
    # below its children, which only trees of size 7 and more satisfy
    from wtgc.semiring import identity_hom

    deep = parse_grammar(
        "semiring boolean\nalphabet alpha:0 gamma:1 sigma:2\n"
        "nonterminals q r\nfinal r = 1\nprod alpha -> q @ 1\n"
        "prod gamma(q) -> q @ 1\n"
        "prod sigma(q,q) -> r [eq 1.1.1=2.1.1] @ 1\n")
    for g in (fx6, deep):
        out = disambiguate(g, identity_hom(g.semiring))
        assert check_unambiguous_upto(out, 7) is None
        for tree in enumerate_trees(g.alphabet, 7):
            assert evaluate(out, tree) == evaluate(g, tree)
    assert evaluate(out, t("sigma", gammas(2, ALPHA), gammas(2, ALPHA))) == 1


# -- support automaton, complement, restriction ------------------------------


def test_support_automaton_example1(fx1):
    aut = support_automaton(fx1)
    assert check_unambiguous_upto(aut, 9) is None
    for tree in enumerate_trees(fx1.alphabet, 8):
        member = evaluate(fx1, tree) != fx1.semiring.zero
        assert evaluate(aut, tree) == (1 if member else 0)


def test_support_automaton_empty_grammar():
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = Wtgc({"q"}, alphabet, {}, [Production(ALPHA, "q", 1)], NATURAL)
    aut = support_automaton(g)
    for tree in enumerate_trees(alphabet, 5):
        assert evaluate(aut, tree) == 0


def test_complement_support(fx1):
    comp = complement_support(fx1)
    assert evaluate(comp, t("sigma", ALPHA, ALPHA)) == 1
    aut = support_automaton(fx1)
    for tree in enumerate_trees(fx1.alphabet, 8):
        assert evaluate(comp, tree) == 1 - evaluate(aut, tree)
    # double complement: flipping the final set again restores membership
    twice = Wtgc(comp.nonterminals, comp.alphabet,
                 {q: 1 - comp.final[q] for q in comp.nonterminals},
                 comp.productions, BOOLEAN)
    for tree in enumerate_trees(fx1.alphabet, 7):
        assert evaluate(twice, tree) == evaluate(aut, tree)


# sigma's pairs relate 1.1, a position below a child, to 2 and to
# itself: a split that fails 1.1=1.1 says that the first child is a
# leaf, and such trees are in the support
ABSENT_POSITION = """semiring nat
alphabet alpha:0 gamma:1 sigma:2
nonterminals q r
final q = 1
prod alpha -> r @ 1
prod gamma(r) -> r @ 1
prod sigma(r,r) -> r @ 1
prod sigma(r,r) -> q [eq 1.1=2] @ 1
prod sigma(r,r) -> q [ne 1.1=1.1] @ 2
"""

# tau's three pairs split eight ways, but in three of the splits two
# holding equalities force the failing third to hold
TRIPLES = """semiring nat
alphabet alpha:0 beta:0 gamma:1 tau:3
nonterminals q r
final q = 1
prod alpha -> r @ 1
prod beta -> r @ 1
prod gamma(r) -> r @ 1
prod tau(r,r,r) -> r @ 1
prod tau(r,r,r) -> q [eq 1=2] [ne 2=3] @ 1
prod tau(r,r,r) -> q [eq 1=3] @ 2
"""


def test_support_constructions_match_the_oracle():
    """The support automaton, its complement and the constraint
    determination against the input's own weights on every tree of size
    6 or less."""
    grammars = [g for g in map(random_wtgc, range(60))
                if g.semiring.zero_divisor_free]
    grammars += map(random_eq_restricted, range(60))
    grammars += map(parse_grammar, (ABSENT_POSITION, TRIPLES))
    checked = 0
    for g in grammars:
        zero = g.semiring.zero
        built = [(support_automaton(g), lambda w: int(w != zero)),
                 (complement_support(g), lambda w: int(w == zero)),
                 (constraint_determine(normalize(g)), lambda w: w)]
        for tree in enumerate_trees(g.alphabet, 6):
            w = evaluate(g, tree)
            for out, expected in built:
                assert evaluate(out, tree) == expected(w), \
                    (serialize_grammar(g), term_str(tree))
            checked += 1
    assert checked == 11_313 + 38 + 132


# the 3-state nat counter of the constructions benchmark
# (perfbench/gen.py `counter`, one split and one nested production)
COUNTER = """semiring nat
alphabet alpha:0 gamma:1 sigma:2
nonterminals c0 c1 c2
final c2 = 1
prod alpha -> c0 @ 2
prod gamma(c2) -> c2 @ 2
prod gamma(c0) -> c1 @ 1
prod gamma(c1) -> c2 @ 2
prod gamma(c2) -> c0 @ 3
prod sigma(c0,c1) -> c2 [eq 1=2] @ 2
prod sigma(c0,c1) -> c2 [ne 1=2] @ 2
prod sigma(c1,c2) -> c1 @ 2
prod sigma(c2,c0) -> c0 @ 2
prod sigma(c0,c0) -> c1 @ 2
prod sigma(gamma(c0),c2) -> c2 @ 3
"""


# the 2-state nat counter of the constructions benchmark
COUNTER2 = """semiring nat
alphabet alpha:0 gamma:1 sigma:2
nonterminals c0 c1
final c1 = 2
prod alpha -> c0 @ 1
prod gamma(c1) -> c1 @ 3
prod gamma(c0) -> c1 @ 1
prod gamma(c1) -> c0 @ 3
prod sigma(c0,c1) -> c0 [eq 1=2] @ 1
prod sigma(c0,c1) -> c0 [ne 1=2] @ 1
prod sigma(c1,c0) -> c0 @ 1
prod sigma(c0,c0) -> c1 @ 2
prod sigma(gamma(c0),c1) -> c1 @ 3
"""


def test_constraint_determination_of_the_counters_is_small():
    # (nonterminals, productions); splitting every production reached
    # gave (10, 96) and (12, 76)
    for text, size in ((COUNTER2, (5, 28)), (COUNTER, (6, 22))):
        out = constraint_determine(normalize(parse_grammar(text)))
        assert (len(out.nonterminals), len(out.productions)) == size


def test_support_automata_are_small():
    # (nonterminals, productions) of the support automaton and of its
    # complement; with every split of every symbol and every state kept
    # both would be (11, 254), (2, 19) and (2, 68)
    cases = [(COUNTER, (10, 99), (11, 144)),
             (ABSENT_POSITION, (2, 15), (2, 15)),
             (TRIPLES, (2, 26), (2, 26))]
    for text, support, complement in cases:
        g = parse_grammar(text)
        for out, size in ((support_automaton(g), support),
                          (complement_support(g), complement)):
            assert (len(out.nonterminals), len(out.productions)) == size


def test_support_automata_read_back():
    grammars = [load_grammar(name) for name in ZERO_DIVISOR_FREE_FIXTURES]
    grammars += [g for g in map(random_wtgc, range(30))
                 if g.semiring.zero_divisor_free]
    grammars += map(random_eq_restricted, range(30))
    for g in grammars:
        for out in (support_automaton(g), complement_support(g)):
            assert parse_grammar(serialize_grammar(out)) == out


def test_restrict_support_example(fx2g, fx2gp):
    restricted = restrict_support(fx2g, fx2gp)
    tree = t("sigma", gammas(1, ALPHA), gammas(1, ALPHA))
    assert evaluate(restricted, tree) == 4
    outside = t("gamma", t("sigma", ALPHA, ALPHA))  # violates fx2gp
    assert evaluate(fx2gp, outside) == ARCTIC.zero
    assert evaluate(restricted, outside) == ARCTIC.zero
    for tree in enumerate_trees(fx2g.alphabet, 9):
        inside = evaluate(fx2gp, tree) != ARCTIC.zero
        expected = evaluate(fx2g, tree) if inside else ARCTIC.zero
        assert evaluate(restricted, tree) == expected


@pytest.fixture(scope="module")
def random_restrictions():
    """(seed, g, restrict_support(g, g)) for the `random_wtgc` seeds
    0-59 whose semiring restriction accepts."""
    return [(seed, g, restrict_support(g, g))
            for seed, g in enumerate(map(random_wtgc, range(60)))
            if g.semiring.zero_divisor_free]


def test_restrict_support_random_oracle(random_restrictions):
    assert len(random_restrictions) == 39
    for seed, g, out in random_restrictions:
        for tree in enumerate_trees(g.alphabet, 5):
            assert evaluate(out, tree) == evaluate(g, tree), (seed, tree)


def test_products_keep_both_inputs_inequalities():
    # the inequality pairs of these inputs fail on small trees, so a
    # product or a restriction that dropped either input's pairs would
    # give a wrong weight below size 8
    inequalities_matter = 0
    for seed in range(30):
        a = random_ne_wtgc(seed)
        b = next(h for h in map(random_ne_wtgc, range(seed + 1, seed + 99))
                 if h.semiring == a.semiring)
        s = a.semiring
        unguarded = Wtgc(b.nonterminals, b.alphabet, b.final,
                         [Production(p.lhs, p.target, p.weight, p.eq)
                          for p in b.productions], s)
        checks = [(hadamard(a, b), s.mul),
                  (hadamard(b, a), lambda x, y: s.mul(y, x)),
                  (restrict_support(a, b),
                   lambda x, y: x if y != s.zero else s.zero),
                  (restrict_support(b, a),
                   lambda x, y: y if x != s.zero else s.zero)]
        differs = False
        for tree in enumerate_trees(a.alphabet, 7):
            x, y = evaluate(a, tree), evaluate(b, tree)
            differs |= evaluate(unguarded, tree) != y
            for out, expected in checks:
                assert evaluate(out, tree) == expected(x, y), \
                    (seed, term_str(tree))
        inequalities_matter += differs
    assert inequalities_matter >= 20


def test_restrictions_are_small_and_read_back(fx1, fx2g, fx2gp):
    # (nonterminals, productions); pair names carry no `#` that the
    # reader would cut as a comment
    cases = [(restrict_support(fx2g, fx2gp), (1, 3)),
             (restrict_support(fx2gp, fx2g), (1, 3)),
             (restrict_support(fx1, fx2gp), (3, 4)),
             (hadamard(fx2g, fx2gp), (1, 3))]
    for out, size in cases:
        assert (len(out.nonterminals), len(out.productions)) == size
        assert parse_grammar(serialize_grammar(out)) == out


# -- relabeling ---------------------------------------------------------------


def test_relabel_collapses_annotations(fx3, fx3_hom):
    stage_one = hom_image_stage_one(fx3, fx3_hom)
    pi = {name: name.split("#", 1)[0]
          for name in stage_one.alphabet.names()}
    out = relabel(stage_one, pi, target_alphabet=fx3_hom.target)
    weights = {production_str(p, out.semiring): p.weight
               for p in out.productions}
    assert weights["gamma(q) -> q @ 3"] == 3  # 2 + 1


def test_relabel_identity(fx4):
    pi = {name: name for name in fx4.alphabet.names()}
    out = relabel(fx4, pi)
    assert_equivalent(fx4, out, 7)


def test_relabel_preimage_sum_oracle(fx4):
    pi = {"a": "a", "g": "g", "f": "g"}
    assert_sums_preimages(fx4, pi, relabel(fx4, pi), 9)


def test_relabel_requires_eq_restriction(fx1):
    with pytest.raises(TransformError):
        relabel(fx1, {"alpha": "alpha", "gamma": "gamma", "sigma": "sigma"})


def test_relabel_rejects_rank_clash(fx4):
    with pytest.raises(TransformError, match="rank mismatch"):
        relabel(fx4, {"a": "x", "g": "x", "f": "x"})



def test_transform_errors(fx1, fx2g, fx3, fx4):
    # each error of a transform's checks, message in full
    identity = {name: name for name in fx4.alphabet.names()}
    cases = [
        (lambda: disjoint_union(fx3, fx4), "alphabet mismatch"),
        (lambda: disambiguate(fx1, support_hom(ARCTIC)),
         "disambiguation needs a WTAc"),
        (lambda: disambiguate(fx2g, support_hom(NATURAL)),
         "homomorphism source mismatch"),
        (lambda: transforms.lift_boolean(fx3, NATURAL),
         "can only lift Boolean grammars"),
        (lambda: relabel(fx4, {"a": "a", "g": "g"}),
         "relabeling undefined on 'f'"),
        (lambda: relabel(fx4, identity,
                         RankedAlphabet({"a": 0, "f": 1, "g": 2})),
         "rank mismatch at 'f'"),
    ]
    for call, message in cases:
        with pytest.raises(TransformError) as info:
            call()
        assert str(info.value) == message

# -- equal productions add their weights ------------------------------------


ZMOD4_TWINS = ("semiring zmod 4\nalphabet alpha:0\nnonterminals q\n"
               "final q = {}\nprod alpha -> q @ 1\nprod alpha -> q @ 3\n")


def test_equal_pair_productions_cancel():
    # g weighs alpha 1 + 3 = 0; its product with g2, and its accepting
    # copies under `final q = 2`, each build one production from both
    # of g's, with 2 + 2 = 0: keeping one of the two would weigh 2
    g = parse_grammar(ZMOD4_TWINS.format(1))
    g2 = parse_grammar("semiring zmod 4\nalphabet alpha:0\nnonterminals z\n"
                       "final z = 1\nprod alpha -> z @ 2\n")
    assert evaluate(g, ALPHA) == 0
    assert evaluate(hadamard(g, g2), ALPHA) == 0
    assert evaluate(boolean_finals(parse_grammar(ZMOD4_TWINS.format(2))),
                    ALPHA) == 0


def _twinned(g, m, rng):
    """g over zmod m with fresh weights: each production outside the
    sink of an eq-restricted g becomes two that differ only in weight,
    and about a third of those pairs cancel."""
    er = eq_restriction(g)
    productions = []
    for p in g.productions:
        if er is not None and p.target == er.sink:
            productions.append(p)
            continue
        w = rng.randrange(1, m)
        if 2 * w != m and rng.random() < 1 / 3:
            twin = m - w
        else:
            twin = rng.choice([x for x in range(1, m) if x != w])
        productions += [Production(p.lhs, p.target, x, p.eq, p.ineq)
                        for x in (w, twin)]
    final = {q: rng.randrange(1, m) for q in g.final_support()}
    return Wtgc(g.nonterminals, g.alphabet, final, productions,
                IntegersMod(m))


@pytest.mark.parametrize("m", [4, 6])
def test_constructions_add_the_weights_of_equal_productions(m):
    rng = random.Random(m)
    for seed in range(30):
        for make, size in ((random_wtgc, 5), (random_eq_restricted, 6)):
            g = make(seed)
            partner = next(h for h in map(make, range(seed + 1, seed + 99))
                           if h.alphabet == g.alphabet)
            a, b = _twinned(g, m, rng), _twinned(partner, m, rng)
            s = a.semiring
            checks = [(normalize(a), lambda x, y: x),
                      (boolean_finals(a), lambda x, y: x),
                      (disjoint_union(a, b), s.add),
                      (hadamard(a, b), s.mul),
                      (hadamard(a, a), lambda x, y: s.mul(x, x))]
            for tree in enumerate_trees(g.alphabet, size):
                x, y = evaluate(a, tree), evaluate(b, tree)
                for out, expected in checks:
                    assert evaluate(out, tree) == expected(x, y), \
                        (seed, term_str(tree))
        a = _twinned(random_eq_restricted(seed), m, rng)
        pi = {name: {"beta": "alpha", "delta": "gamma"}.get(name, name)
              for name in a.alphabet.names()}
        assert_sums_preimages(a, pi, relabel(a, pi), 6)


def test_fresh_names_avoid_adversarial_symbols():
    # a symbol spelled like a generated nonterminal must not collide
    alphabet = RankedAlphabet({"alpha": 0, "q#f": 0, "q#[]": 0})
    g = Wtgc({"q"}, alphabet, {"q": 2},
             [Production(ALPHA, "q", 2),
              Production(leaf("q#f"), "q", 3),
              Production(leaf("q#[]"), "q", 1)],
             NATURAL)
    for out in (boolean_finals(g), eliminate_zero_derivations(g),
                constraint_determine(g), disjoint_union(g, g),
                hadamard(g, g)):
        assert not (out.nonterminals & set(out.alphabet.names()))
    assert_equivalent(g, boolean_finals(g), 3)
    assert_equivalent(g, eliminate_zero_derivations(g), 3)
    # the sinks added by pumping's preprocessing and by the image
    # construction avoid symbols named like their default names
    alphabet = RankedAlphabet({"top": 0, "bot": 0, "bot'": 0, "f": 2})
    sink = sink_productions(alphabet, "s", 1)
    g = Wtgc({"q", "s"}, alphabet, {"q": 1},
             [*sink, Production(leaf("top"), "q", 1),
              Production(t("f", leaf("s"), leaf("s")), "q", 2)], NATURAL)
    twin = ensure_nonbot_child(g)
    assert twin.nonterminals == {"q", "s", "top'"}
    assert_equivalent(g, twin, 3)
    wta = Wtgc({"q"}, alphabet, {"q": 1},
               [Production(leaf(a), "q", 1) for a in ("top", "bot", "bot'")]
               + [Production(t("f", leaf("q"), leaf("q")), "q", 2)], NATURAL)
    identity = relabeling_hom(alphabet, {}, alphabet)
    stage = hom_image_stage_one(wta, identity)
    assert stage.nonterminals == {"q", "bot''"}
    assert_equivalent(wta, image_grammar(wta, identity), 3)


# -- the spellings a grammar keeps --------------------------------------------


def _spelling_writer(g):
    """The writer that spelled every production again on each call: the
    reference for the spellings a grammar keeps."""
    s = g.semiring
    lines = [f"semiring {s.name}", "alphabet " + " ".join(
        f"{n}:{r}" for n, r in g.alphabet.symbols())]
    if g.nonterminals:
        lines.append("nonterminals " + " ".join(sorted(g.nonterminals)))
    lines += [f"final {q} = {s.format(g.final[q])}"
              for q in sorted(g.nonterminals) if g.final[q] != s.zero]
    lines += ["prod " + production_str(p, s) for p in g.productions]
    return "\n".join(lines) + "\n"


def _every_construction(g):
    """The output of every construction that accepts g (and g itself)."""
    from wtgc.semiring import identity_hom

    n = normalize(g)
    builds = [lambda: g, lambda: n, lambda: boolean_finals(g),
              lambda: eliminate_zero_derivations(g),
              lambda: support_grammar(g), lambda: constraint_determine(n),
              lambda: disjoint_union(g, g), lambda: hadamard(g, g),
              lambda: support_automaton(g), lambda: complement_support(g),
              lambda: transforms.lift_boolean(support_grammar(g),
                                              g.semiring)]
    if g.semiring.finite and len(g.productions) <= 4:
        builds.append(lambda: disambiguate(n, identity_hom(g.semiring)))
    if eq_restriction(g) is not None:
        builds.append(lambda: relabel(g, {name: name
                                          for name in g.alphabet}))
    for build in builds:
        try:
            yield build()
        except (TransformError, SemiringError):  # a refused semiring
            continue


def test_kept_spellings_are_the_production_spellings(fx3, fx3_hom,
                                                    random_restrictions):
    fixtures = [load_grammar(name) for name in ZERO_DIVISOR_FREE_FIXTURES]
    grammars = fixtures + [load_grammar("fx6")]
    grammars += map(random_wtgc, range(60))
    grammars += map(random_eq_restricted, range(60))
    fx2g, fx2gp = fixtures[1:3]
    outputs = [image_grammar(fx3, fx3_hom), restrict_support(fx2g, fx2gp),
               restrict_support(fx2gp, fx2g)]
    for g in grammars:
        outputs += _every_construction(g)
    outputs += [out for _, _, out in random_restrictions]
    assert len(outputs) > 1000
    for out in outputs:
        assert out.spellings == tuple(production_str(p, out.semiring)
                                      for p in out.productions)
        assert serialize_grammar(out) == _spelling_writer(out)
