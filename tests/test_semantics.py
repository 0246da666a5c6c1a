import sys
import threading

import pytest

from conftest import gammas, load_grammar, random_wtgc, t
from wtgc.errors import GrammarError
from wtgc.grammar import Production, Wtgc
from wtgc.semantics import (
    Derivation,
    check_unambiguous_upto,
    derivation_weight,
    derivations,
    evaluate,
    incorporated,
    replay_derivation,
    state_weight,
    weight_map,
)
from wtgc.pumping import separation_family
from wtgc.semiring import NATURAL, NEG_INF
from wtgc.syntax import parse_term
from wtgc.trees import RankedAlphabet, Tree, enumerate_trees, leaf, \
    leftmost_key

ALPHA = leaf("alpha")
EX1_TREE = t("sigma", gammas(2, ALPHA), gammas(1, ALPHA))


def by_id(g, pid):
    for p in g.productions:
        if g.prod_id(p) == pid:
            return p
    raise AssertionError(pid)


def test_example1_unique_leftmost_derivation(fx1):
    ds = derivations(fx1, EX1_TREE, "q'")
    assert len(ds) == 1
    d = ds[0]
    assert [(fx1.prod_id(p), w) for p, w in d.steps] == [
        ("p1", (1, 1, 1)),
        ("p2", (1, 1)),
        ("p1", (2, 1)),
        ("p2", (2,)),
        ("p3", ()),
    ]
    assert derivation_weight(fx1, d) == 3  # arctic product = 0+1+0+1+1


def test_example1_no_derivation_for_leaf(fx1):
    assert derivations(fx1, ALPHA, "q'") == []


def test_product_fixture_has_unique_derivation(fx2g):
    tree = t("sigma", gammas(1, ALPHA), gammas(1, ALPHA))
    assert len(derivations(fx2g, tree, "q")) == 1


def test_empty_derivation_weight(fx3):
    d = Derivation((), ALPHA, None)
    assert derivation_weight(fx3, d) == 1


def test_derivation_weight_fx3(fx3):
    tree = t("phi", t("gamma", t("epsilon", ALPHA)))
    (d,) = derivations(fx3, tree, "q'")
    assert derivation_weight(fx3, d) == 2  # 1 * 2 * 1 * 1


def test_derivation_weight_rejects_foreign_production(fx3):
    foreign = Production(leaf("alpha"), "q", 7)
    with pytest.raises(GrammarError):
        derivation_weight(fx3, Derivation(((foreign, ()),), ALPHA, "q"))


def test_state_weight_examples(fx1):
    assert state_weight(fx1, "q", gammas(2, ALPHA)) == 2
    assert state_weight(fx1, "q'", ALPHA) == NEG_INF  # empty sum


def test_evaluate_example1(fx1):
    assert evaluate(fx1, EX1_TREE) == 3
    assert evaluate(fx1, t("sigma", ALPHA, ALPHA)) == NEG_INF


def test_evaluate_counts_both_symbols(fx2gp):
    tree = t("sigma", gammas(1, ALPHA), gammas(1, ALPHA))
    assert evaluate(fx2gp, tree) == 3


def test_incorporated(fx1):
    (d,) = derivations(fx1, EX1_TREE, "q'")
    assert incorporated(d, ()) == d
    sub = incorporated(d, (1,))
    assert sub.input == gammas(2, ALPHA)
    assert [(fx1.prod_id(p), w) for p, w in sub.steps] == [
        ("p1", (1, 1)), ("p2", (1,))]
    assert sub.target is None  # no step at the position itself
    at_leaf = incorporated(d, (1, 1, 1))
    assert at_leaf.target == "q"
    below = incorporated(d, (2, 1))
    assert [(fx1.prod_id(p), w) for p, w in below.steps] == [("p1", ())]
    from wtgc.errors import InvalidPositionError

    with pytest.raises(InvalidPositionError):
        incorporated(d, (3,))


def test_incorporated_empty():
    # a production lhs with interior symbol leaves hosts no steps below
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = Wtgc({"q"}, alphabet, {"q": 1},
             [Production(t("gamma", ALPHA), "q", 1)], NATURAL)
    tree = t("gamma", ALPHA)
    (d,) = derivations(g, tree, "q")
    inner = incorporated(d, (1,))
    assert inner.steps == ()
    assert inner.target is None


def test_master_oracle_sum_of_derivations_is_state_weight(
        fx1, fx2g, fx2gp, fx4, fx6):
    for g in (fx1, fx2g, fx2gp, fx4, fx6):
        for tree in enumerate_trees(g.alphabet, 6):
            for q in sorted(g.nonterminals):
                total = g.semiring.sum(
                    derivation_weight(g, d)
                    for d in derivations(g, tree, q))
                assert total == state_weight(g, q, tree)


def test_derivations_replay_and_are_leftmost(fx1, fx4, fx5):
    for g in (fx1, fx4, fx5):
        for tree in enumerate_trees(g.alphabet, 6):
            for q in sorted(g.nonterminals):
                for d in derivations(g, tree, q):
                    assert replay_derivation(g, d)
                    keys = [leftmost_key(w) for _, w in d.steps]
                    assert keys == sorted(keys)


def test_replay_rejects_wrong_order(fx1):
    (d,) = derivations(fx1, EX1_TREE, "q'")
    shuffled = Derivation(tuple(reversed(d.steps)), d.input, d.target)
    assert not replay_derivation(fx1, shuffled)


def test_evaluate_independent_of_production_text_order(fx1):
    lines = [
        "semiring arctic",
        "alphabet alpha:0 gamma:1 sigma:2",
        "nonterminals q q'",
        "final q' = 0",
        "prod sigma(gamma(q),q) -> q' [eq 1.1=2] @ 1",
        "prod gamma(q) -> q @ 1",
        "prod alpha -> q @ 0",
    ]
    from wtgc.syntax import parse_grammar

    reordered = parse_grammar("\n".join(lines))
    assert reordered == fx1
    for tree in enumerate_trees(fx1.alphabet, 6):
        assert evaluate(reordered, tree) == evaluate(fx1, tree)


def test_check_unambiguous_reports_witness():
    alphabet = RankedAlphabet({"alpha": 0})
    g = Wtgc({"q", "r"}, alphabet, {"q": 1, "r": 1},
             [Production(ALPHA, "q", 1), Production(ALPHA, "r", 1)],
             NATURAL)
    assert check_unambiguous_upto(g, 3) == ALPHA


def test_check_unambiguous_empty_grammar():
    alphabet = RankedAlphabet({"alpha": 0})
    g = Wtgc({"q"}, alphabet, {"q": 1}, [], NATURAL)
    assert check_unambiguous_upto(g, 4) is None


def test_random_wtgc_cross_oracle():
    # arbitrary constraints, including non-classic ones pointing below
    # the nonterminals or outside the left-hand side
    from conftest import random_wtgc
    from wtgc.trees import enumerate_trees

    for seed in range(30):
        g = random_wtgc(seed)
        for tree in enumerate_trees(g.alphabet, 5):
            for q in sorted(g.nonterminals):
                ds = derivations(g, tree, q)
                total = g.semiring.sum(derivation_weight(g, d) for d in ds)
                assert total == state_weight(g, q, tree), seed
                for d in ds:
                    assert replay_derivation(g, d), seed


def test_random_wtgc_normalize_equivalence():
    from conftest import random_wtgc
    from wtgc.transforms import normalize
    from wtgc.trees import enumerate_trees

    for seed in range(30):
        g = random_wtgc(seed)
        out = normalize(g)
        from wtgc.grammar import classify

        assert classify(out).normalized, seed
        for tree in enumerate_trees(g.alphabet, 5):
            assert evaluate(g, tree) == evaluate(out, tree), seed


def test_constraints_checked_on_original_subtree(fx5):
    # non-classic constraints look below the nonterminals of the lhs
    tree = parse_term("f(g(a,a),g(a,a))", fx5.alphabet)
    assert evaluate(fx5, tree) == 1
    # both children derive to q on their own, but 1.2 != 2.1 at the root
    skewed = parse_term("f(g(a,a),f(g(a,a),g(a,a)))", fx5.alphabet)
    assert state_weight(fx5, "q", skewed.children[0]) == 1
    assert state_weight(fx5, "q", skewed.children[1]) == 1
    assert evaluate(fx5, skewed) == 0


def test_undeclared_nonterminal_is_an_error(fx1):
    with pytest.raises(GrammarError):
        state_weight(fx1, "nope", ALPHA)
    with pytest.raises(GrammarError):
        derivations(fx1, EX1_TREE, "nope")


def _unshared(tree):
    """A node-by-node copy in which no two positions share an object."""
    return Tree(tree.label, [_unshared(c) for c in tree.children])


def _maximally_shared(tree, pool):
    """A copy in which all equal subtrees (across the pool) are one
    object."""
    node = Tree(tree.label,
                [_maximally_shared(c, pool) for c in tree.children])
    return pool.setdefault(node, node)


def test_results_do_not_depend_on_sharing():
    # canonical ids must follow structure, never object identity: the
    # enumerated trees share children between trees, the unshared copies
    # share nothing, the pooled copies share every equal subtree
    for seed in range(30):
        g = random_wtgc(seed)
        states = sorted(g.nonterminals)
        pool = {}
        for tree in enumerate_trees(g.alphabet, 6):
            results = []
            for copy in (_unshared(tree), _maximally_shared(tree, pool),
                         tree):
                ds = [derivations(g, copy, q) for q in states]
                assert all(d.input is copy for group in ds for d in group)
                results.append((
                    evaluate(g, copy),
                    [state_weight(g, q, copy) for q in states],
                    [[d.steps for d in group] for group in ds]))
            assert results[0] == results[1] == results[2], seed


def _at_default_recursion_limit(fn):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return fn()
    finally:
        sys.setrecursionlimit(old)


def test_deep_tree_evaluates_without_recursion():
    g = load_grammar("fx2g")
    deep = ALPHA
    for _ in range(100000):
        deep = Tree("gamma", [deep])
    weight = _at_default_recursion_limit(lambda: evaluate(g, deep))
    assert weight == 200000


def test_shared_tree_costs_its_distinct_objects():
    # 2^201 - 1 nodes, but only 201 distinct objects
    g = load_grammar("fx5")
    tree, _ = separation_family(200)
    weight = _at_default_recursion_limit(lambda: evaluate(g, tree))
    assert weight == 1
    assert len(weight_map(g).keys) <= 201


def test_one_grammar_shared_between_threads():
    # the weight map fills in lazily; concurrent callers must neither
    # lose nor misplace an entry
    g = load_grammar("fx4")
    trees = list(enumerate_trees(g.alphabet, 9))
    reference = [evaluate(load_grammar("fx4"), tree) for tree in trees]
    results = {}

    def work(k):
        order = trees if k % 2 else trees[::-1]
        got = {id(tree): evaluate(g, tree) for tree in order}
        results[k] = [got[id(tree)] for tree in trees]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(results[k] == reference for k in range(4))
    m = weight_map(g)
    assert len(m.keys) == len(m.vectors) == len(set(m.keys))
