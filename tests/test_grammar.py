import copy
import pickle
import random
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest

from conftest import load_grammar, random_eq_restricted, random_wtgc, t
from wtgc import grammar
from wtgc.errors import GrammarError
from wtgc.grammar import (
    Production,
    Wtgc,
    classify,
    eq_restriction,
    equality_classes,
    make_constraints,
    production_str,
    validate,
)
from wtgc.semantics import derivations, evaluate
from wtgc.semiring import ARCTIC, NATURAL, TROPICAL
from wtgc.trees import (
    RankedAlphabet,
    Tree,
    enumerate_trees,
    leaf,
    subtree,
    walk,
)

ABC = RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})


def test_validate_fixture_clean(fx1, fx2g, fx2gp, fx3, fx4, fx5, fx6):
    for g in (fx1, fx2g, fx2gp, fx3, fx4, fx5, fx6):
        assert validate(g) == []


def test_validate_bare_nonterminal_lhs():
    with pytest.raises(GrammarError, match="bare nonterminal"):
        Wtgc({"q", "r"}, ABC, {}, [Production(leaf("q"), "r", 1)], NATURAL)


def test_validate_zero_weight():
    with pytest.raises(GrammarError, match="zero-weight"):
        Wtgc({"q"}, ABC, {}, [Production(leaf("alpha"), "q", 0)], NATURAL)


def test_validate_arity():
    with pytest.raises(GrammarError, match="arity mismatch"):
        Wtgc({"q"}, ABC, {}, [Production(t("sigma", leaf("q")), "q", 1)],
             NATURAL)


def test_validate_position_components_from_one():
    # a 0 would address the last child through Python's negative indexing
    abf = RankedAlphabet({"a": 0, "b": 0, "f": 2})
    base = [Production(leaf("a"), "q", 1), Production(leaf("b"), "q", 1)]
    fqq = t("f", leaf("q"), leaf("q"))
    for eq, ineq in (([((0,), (2,))], []), ([], [((2, 0), (1,))])):
        with pytest.raises(GrammarError, match="position component below 1"):
            Wtgc({"q"}, abf, {"q": 1},
                 base + [Production(fqq, "q", 1, eq, ineq)], NATURAL)
    Wtgc({"q"}, abf, {"q": 1},
         base + [Production(fqq, "q", 1, [((1,), (2,))])], NATURAL)


def test_final_weight_for_undeclared_nonterminal_raises():
    with pytest.raises(GrammarError,
                       match="final weight for undeclared nonterminal 'zz'"):
        Wtgc({"q"}, ABC, {"q": 1, "zz": 5},
             [Production(leaf("alpha"), "q", 1)], NATURAL)


def test_validate_diagnostics():
    # every diagnostic of `validate`, built through the API, with the
    # whole message; the last case reports three problems of one
    # production, each under its serialized form
    a = Production(leaf("alpha"), "q", 1)
    cases = [
        ({"q", "x1"}, {}, [a], NATURAL, "bad nonterminal name 'x1'"),
        ({"q", "gamma"}, {}, [a], NATURAL,
         "name 'gamma' is both a nonterminal and a symbol"),
        ({"q"}, {"q": 1, "zz": 5}, [a], NATURAL,
         "final weight for undeclared nonterminal 'zz'"),
        ({"q"}, {"q": -1}, [a], NATURAL,
         "final weight of 'q' outside the carrier"),
        ({"q", "r"}, {}, [Production(leaf("q"), "r", 1)], NATURAL,
         "q -> r @ 1: lhs is a bare nonterminal"),
        ({"q"}, {}, [a, Production(t("gamma", t("q", leaf("alpha"))),
                                   "q", 1)], NATURAL,
         "gamma(q(alpha)) -> q @ 1: nonterminal 'q' with children"),
        ({"q"}, {}, [Production(t("sigma", leaf("q")), "q", 1)], NATURAL,
         "sigma(q) -> q @ 1: arity mismatch at 'sigma'"),
        ({"q"}, {}, [Production(t("gamma", leaf("beta")), "q", 1)], NATURAL,
         "gamma(beta) -> q @ 1: undeclared label 'beta'"),
        ({"q"}, {}, [a, Production(t("sigma", leaf("q"), leaf("q")), "q", 1,
                                   [((0,), (2,))])], NATURAL,
         "sigma(q,q) -> q [eq 0=2] @ 1: constraint position component "
         "below 1"),
        # components that the writer spells but the reader rejects, or
        # that no tree position can use
        ({"q"}, {}, [a, Production(t("sigma", leaf("q"), leaf("q")), "q", 1,
                                   [((True,), (2,))])], NATURAL,
         "sigma(q,q) -> q [eq True=2] @ 1: constraint position component "
         "not an int"),
        ({"q"}, {}, [a, Production(t("sigma", leaf("q"), leaf("q")), "q", 1,
                                   [], [((1.0,), (2,))])], NATURAL,
         "sigma(q,q) -> q [ne 1.0=2] @ 1: constraint position component "
         "not an int"),
        ({"q"}, {}, [a, Production(t("sigma", leaf("q"), leaf("q")), "q", 1,
                                   [("1", "2")])], NATURAL,
         "sigma(q,q) -> q [eq 1=2] @ 1: constraint position component "
         "not an int"),
        ({"q"}, {}, [Production(leaf("alpha"), "r", 1)], NATURAL,
         "alpha -> r @ 1: undeclared target 'r'"),
        ({"q"}, {}, [Production(leaf("alpha"), "q", 2.5)], NATURAL,
         "alpha -> q @ 2.5: weight outside the carrier"),
        ({"q"}, {}, [Production(leaf("alpha"), "q", float("inf"))], TROPICAL,
         "alpha -> q @ inf: zero-weight production"),
        ({"q"}, {}, [Production(Tree("gamma", [leaf("beta")]), "r", 0)],
         NATURAL,
         "gamma(beta) -> r @ 0: undeclared label 'beta'; "
         "gamma(beta) -> r @ 0: undeclared target 'r'; "
         "gamma(beta) -> r @ 0: zero-weight production"),
    ]
    for nonterminals, final, productions, s, message in cases:
        with pytest.raises(GrammarError) as exc:
            Wtgc(nonterminals, ABC, final, productions, s)
        assert str(exc.value) == message


def _prod(g, text):
    for p in g.productions:
        if production_str(p, g.semiring).startswith(text):
            return p
    raise AssertionError(f"no production starting with {text!r}")


def test_decompose_example1(fx1):
    p3 = _prod(fx1, "sigma")
    dec = fx1.decompose(p3)
    assert dec.checks == (((1,), "gamma", 1),)
    assert dec.states == ("q", "q")
    assert dec.positions == ((1, 1), (2,))


def test_decompose_nullary(fx1):
    p1 = _prod(fx1, "alpha")
    dec = fx1.decompose(p1)
    assert dec.checks == ()
    assert dec.states == ()


def test_decompose_nested(fx4):
    pf = _prod(fx4, "f(q")
    dec = fx4.decompose(pf)
    assert dec.checks == (((2,), "f", 2),)
    assert dec.states == ("q", "q", "bot")
    assert dec.positions == ((1,), (2, 1), (2, 2))


def test_decompose_covers_every_position():
    # the root, the leaves and the checks partition the lhs positions,
    # each holding what the decomposition says it holds; both lists are in
    # pre-order, which is the lexicographic order of positions
    for seed in range(30):
        g = random_wtgc(seed)
        for p in g.productions:
            dec = g.decompose(p)
            leaves = dict(zip(dec.positions, dec.states))
            checks = {w: (label, arity) for w, label, arity in dec.checks}
            assert sorted([(), *leaves, *checks]) == sorted(
                w for w, _ in walk(p.lhs))
            assert list(leaves) == sorted(leaves)
            assert list(checks) == sorted(checks)
            for w, q in leaves.items():
                assert subtree(p.lhs, w) == leaf(q)
            for w, (label, arity) in checks.items():
                node = subtree(p.lhs, w)
                assert (node.label, len(node.children)) == (label, arity)


def test_classify_example1(fx1):
    cls = classify(fx1)
    assert cls.positive and cls.classic
    assert not cls.normalized
    assert not cls.unconstrained


def test_classify_inequality(fx2gp):
    assert not classify(fx2gp).positive


def test_classify_unconstrained_wta(fx3):
    cls = classify(fx3)
    assert cls.normalized and cls.positive and cls.classic \
        and cls.unconstrained


def test_classify_constraint_determined(fx2g):
    assert classify(fx2g).constraint_determined
    doubled = Wtgc(
        fx2g.nonterminals, fx2g.alphabet, fx2g.final,
        list(fx2g.productions)
        + [Production(t("sigma", leaf("q"), leaf("q")), "q", 0)],
        ARCTIC)
    assert not classify(doubled).constraint_determined


def test_equality_classes(fx1, fx4):
    # every named position and every prefix of one maps to the least
    # position of its class
    pf = _prod(fx4, "f(q")
    assert equality_classes(pf.eq) == {
        (): (), (1,): (1,), (2,): (2,), (2, 2): (1,)}
    p1 = _prod(fx4, "a ->")
    assert equality_classes(p1.eq) == {}
    p3 = _prod(fx1, "sigma")
    assert equality_classes(p3.eq) == {
        (): (), (1,): (1,), (1, 1): (1, 1), (2,): (1, 1)}
    # 1=3 only through 2
    chain = {(): (), (1,): (1,), (2,): (1,), (3,): (1,)}
    assert equality_classes([((1,), (2,)), ((2,), (3,))]) == chain
    assert equality_classes([((2,), (3,)), ((1,), (2,))]) == chain
    assert equality_classes([((3,), (2,)), ((2,), (1,))]) == chain
    # classes stay apart, and a pair p=p names p
    assert equality_classes([((1,), (3,)), ((2,), (2,)), ((4,), (2,))]) == {
        (): (), (1,): (1,), (3,): (1,), (2,): (2,), (4,): (2,)}


def test_eq_restriction_fx4(fx4):
    er = eq_restriction(fx4)
    assert er is not None
    assert er.sink == "bot"
    pf = _prod(fx4, "f(q")
    assert er.governing[pf] == {1: 1, 2: 2, 3: 1}
    pg = _prod(fx4, "g(q")
    assert er.governing[pg] == {1: 1, 2: 1}
    sink_g = _prod(fx4, "g(bot")
    assert er.governing[sink_g] == {1: 1, 2: 2}


def test_eq_restriction_absent_without_sink(fx1):
    assert eq_restriction(fx1) is None


def test_eq_restriction_total_and_consistent(fx4, fx3_image):
    for g in (fx4, fx3_image):
        er = eq_restriction(g)
        assert er is not None
        for p in g.productions:
            states = g.decompose(p).states
            gp = er.governing[p]
            assert set(gp) == set(range(1, len(states) + 1))
            for i, gov in gp.items():
                has_non_sink = any(
                    states[j - 1] != er.sink
                    for j in gp if gp[j] == gov)
                if states[i - 1] != er.sink:
                    assert gov == i
                if has_non_sink:
                    assert states[gov - 1] != er.sink


def test_eq_restriction_rejects_ungoverned_pair():
    # two sink positions tied to each other have no governing index
    alphabet = RankedAlphabet({"a": 0, "f": 2})
    prods = [
        Production(leaf("a"), "q", 1),
        Production(t("f", leaf("bot"), leaf("bot")), "q", 1,
                   [((1,), (2,))]),
        Production(leaf("a"), "bot", 1),
        Production(t("f", leaf("bot"), leaf("bot")), "bot", 1),
    ]
    g = Wtgc({"q", "bot"}, alphabet, {"q": 1}, prods, NATURAL)
    assert eq_restriction(g) is None


def test_production_ids_are_stable(fx1):
    ids = [fx1.prod_id(p) for p in fx1.productions]
    assert ids == ["p1", "p2", "p3"]
    with pytest.raises(GrammarError):
        fx1.prod_id(Production(leaf("alpha"), "q", 5))


def rebuilt(g):
    """An equal grammar over separately built equal productions, with
    nothing computed yet."""
    return Wtgc(g.nonterminals, g.alphabet, g.final,
                [replace(p) for p in g.productions], g.semiring)


def test_classification_and_eq_restriction_are_kept_on_the_grammar(
        monkeypatch):
    grammars = ([load_grammar(name) for name in
                 ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6")]
                + [random_eq_restricted(seed) for seed in range(100)]
                + [random_wtgc(seed) for seed in range(50)])
    restricted = 0
    for g in grammars:
        cls, er = classify(g), eq_restriction(g)
        fresh = rebuilt(g)
        assert fresh == g
        # the other order on the copy: eq_restriction classifies first
        assert eq_restriction(fresh) == er
        assert classify(fresh) == cls
        # a second call returns the kept object, a kept None included,
        # and computes nothing
        with monkeypatch.context() as patch:
            for name in ("Classification", "_find_eq_restriction"):
                patch.setattr(grammar, name, None)
            assert classify(g) is cls
            assert eq_restriction(g) is er
        restricted += er is not None
    assert 0 < restricted < len(grammars)


def test_production_hash_follows_the_compared_fields():
    for seed in range(50):
        for p in random_wtgc(seed).productions:
            flipped = Production(p.lhs, p.target, p.weight,
                                 [(w, v) for v, w in p.eq],
                                 [(w, v) for v, w in p.ineq])
            assert flipped == p and hash(flipped) == hash(p)
            assert hash(p) == hash(
                (p.lhs, p.target, p.weight, p.eq, p.ineq))
            # `replace` builds a new production, hashed afresh
            moved = replace(p, target=p.target + "'")
            assert moved != p and hash(moved) != hash(p)
            assert hash(moved) == hash(
                Production(p.lhs, p.target + "'", p.weight, p.eq, p.ineq))
            assert {moved, flipped} == {p, replace(moved)}


def _full_canonical(pairs):
    """Every pair rebuilt as a tuple of tuples, smaller position first."""
    return frozenset(tuple(sorted((tuple(v), tuple(w)))) for v, w in pairs)


def test_production_contract():
    p = Production(t("sigma", leaf("q"), leaf("q")), "q", 2,
                   [((2,), (1,))], [((1, 1), (2,))])
    for name in ("lhs", "target", "weight", "eq", "ineq", "_hash"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(p, name)
    assert not hasattr(p, "__dict__")
    assert replace(p) == p and hash(replace(p)) == hash(p)
    moved = replace(p, target="r")
    assert (moved.target, moved.lhs, moved.eq) == ("r", p.lhs, p.eq)
    assert repr(p).startswith("Production(lhs=Tree('sigma(q,q)'), ")
    for copied in (copy.copy(p), copy.deepcopy(p),
                   pickle.loads(pickle.dumps(p))):
        assert copied == p and hash(copied) == hash(p)


def test_constraint_fast_path_matches_full_canonicalization():
    rng = random.Random(7)
    pool = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (3,), (1, 1, 1)]
    kinds = Counter()
    for _ in range(3000):
        pairs = [(rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:  # list-valued positions
            pairs = [(list(v), w) for v, w in pairs]
        if rng.random() < 0.5:  # reversed pairs
            pairs = [(w, v) for v, w in pairs]
        want = _full_canonical(pairs)
        as_tuples = frozenset((tuple(v), tuple(w)) for v, w in pairs)
        for given in (pairs, as_tuples, want, set(want)):
            got = make_constraints(given)
            assert got == want and type(got) is frozenset
            canonical = type(given) is frozenset and given == want
            if want:
                # a canonical frozenset is kept, anything else rebuilt
                assert (got is given) == canonical
            kinds[canonical, bool(want)] += 1
    assert min(kinds.values()) > 100 and len(kinds) == 4



def test_malformed_constraint_pairs_are_grammar_errors():
    # a pair that is not two comparable position sequences, given as a
    # list or as a frozenset, is named whole
    fqq = t("f", leaf("q"), leaf("q"))
    cases = [
        ([("1", (2,))], "bad constraint pair ('1', (2,))"),
        ([1], "bad constraint pair 1"),
        ([((1,),)], "bad constraint pair ((1,),)"),
        ([((1,), (2,), (3,))], "bad constraint pair ((1,), (2,), (3,))"),
        (frozenset({1}), "bad constraint pair 1"),
        (frozenset({(("1",), (2,))}), "bad constraint pair (('1',), (2,))"),
    ]
    for pairs, message in cases:
        for eq, ineq in ((pairs, ()), ((), pairs)):
            with pytest.raises(GrammarError) as info:
                Production(fqq, "q", 1, eq, ineq)
            assert str(info.value) == message, pairs
    # pairs of the right shape are left to `validate`
    assert Production(fqq, "q", 1, [("2", "1")]).eq == {(("1",), ("2",))}

def test_one_decomposition_per_production_per_grammar(monkeypatch):
    calls = []
    original = grammar.decompose

    def counted(p, nonterminals):
        calls.append(p)
        return original(p, nonterminals)

    # every module that bound the function by name counts too
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("wtgc")
                and getattr(module, "decompose", None) is original):
            monkeypatch.setattr(module, "decompose", counted)

    def analyses(g):
        classify(g)
        eq_restriction(g)

    def weights(g):
        for tree in enumerate_trees(g.alphabet, 5):
            evaluate(g, tree)
            for q in sorted(g.nonterminals):
                derivations(g, tree, q)

    sources = ([lambda name=name: load_grammar(name) for name in
                ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6")]
               + [lambda seed=seed: random_wtgc(seed) for seed in range(30)]
               + [lambda seed=seed: random_eq_restricted(seed)
                  for seed in range(30)])
    for source in sources:
        for first, then in (analyses, weights), (weights, analyses):
            g = source()
            calls.clear()
            first(g)
            then(g)
            assert len(calls) == len(g.productions)
            assert set(calls) == set(g.productions)
