import random

import pytest

from conftest import gammas, random_eq_restricted, random_wtgc, t
from wtgc.cli import main
from wtgc.decision import (
    enumerate_support,
    finiteness_analysis,
    is_support_empty,
    is_support_finite,
    productivity,
)
from wtgc.errors import DecisionError
from wtgc.grammar import Production, Wtgc, classify
from wtgc.pumping import grammar_height, separation_family
from wtgc.semantics import evaluate
from wtgc.semiring import ARCTIC, NATURAL, IntegersMod
from wtgc.syntax import serialize_grammar
from wtgc.transforms import eliminate_zero_derivations
from wtgc.trees import RankedAlphabet, enumerate_trees, leaf, term_str
from wtgc import trees

ALPHA = leaf("alpha")


def sinkful(nonterminals, alphabet, final, extra, semiring=NATURAL):
    prods = [Production(t(name, *[leaf("bot")] * rank), "bot", 1)
             for name, rank in alphabet.symbols()]
    return Wtgc(set(nonterminals) | {"bot"}, alphabet, final,
                prods + extra, semiring)


def test_image_grammar_support(fx3_image):
    assert is_support_empty(fx3_image) is False
    assert is_support_finite(fx3_image) is False


def test_empty_when_final_has_no_productions():
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = sinkful({"q"}, alphabet, {"q": 1}, [])
    assert is_support_empty(g) is True
    assert enumerate_support(g, 6) == []


def test_single_tree_support_is_finite():
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = sinkful({"q"}, alphabet, {"q": 1},
                [Production(ALPHA, "q", 1)])
    assert is_support_empty(g) is False
    assert is_support_finite(g) is True
    assert enumerate_support(g, 6) == [ALPHA]


def test_unary_loop_is_infinite():
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = sinkful({"q"}, alphabet, {"q": 1},
                [Production(ALPHA, "q", 1),
                 Production(t("gamma", leaf("q")), "q", 1)])
    assert is_support_finite(g) is False


def test_sink_governed_slot_is_infinite():
    # an unconstrained sink child admits arbitrary trees
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = sinkful({"q"}, alphabet, {"q": 1},
                [Production(t("gamma", leaf("bot")), "q", 1)])
    assert is_support_empty(g) is False
    assert is_support_finite(g) is False


def test_all_sink_children_explain_the_sink_slot():
    # gamma(bot) -> q: no nonterminal outside the input is named
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = sinkful({"q"}, alphabet, {"q": 1},
                [Production(t("gamma", leaf("bot")), "q", 1)])
    assert finiteness_analysis(g) == (
        False, "sink-governed slot in a production for q")


def test_finals_in_an_unproductive_cycle_are_not_useful(capsys, tmp_path):
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = sinkful({"q", "r"}, alphabet, {"q": 1, "r": 1},
                [Production(t("gamma", leaf("r")), "q", 1),
                 Production(t("gamma", leaf("q")), "r", 1)])
    table = productivity(g)
    assert table.productive == {"bot"}
    assert table.reachable == frozenset()
    assert is_support_empty(g) is True
    assert finiteness_analysis(g) == (True, "no productive cycle")
    path = tmp_path / "g.wtg"
    path.write_text(serialize_grammar(g))
    assert main(["decide", "empty", "--grammar", str(path),
                 "--explain"]) == 0
    assert capsys.readouterr().out == (
        "empty\nproductive: bot\nreachable: -\n")


def test_productions_with_unproductive_children_are_skipped():
    # sigma(u, bot) -> q never fires, so its free sink slot is no witness
    alphabet = RankedAlphabet({"alpha": 0, "sigma": 2})
    g = sinkful({"q", "u"}, alphabet, {"q": 1},
                [Production(ALPHA, "q", 1),
                 Production(t("sigma", leaf("u"), leaf("bot")), "q", 1)])
    assert finiteness_analysis(g) == (True, "no productive cycle")
    assert enumerate_support(g, 7) == [ALPHA]


def test_explanations_name_only_the_input_nonterminals():
    for seed in range(100):
        g = random_eq_restricted(seed)
        _, reason = finiteness_analysis(g)
        if reason.startswith("cycle: "):
            named = set(reason[len("cycle: "):].split(" -> "))
        elif reason.startswith("sink-governed slot in a production for "):
            named = {reason.rsplit(" ", 1)[1]}
        else:
            assert reason == "no productive cycle", seed
            named = set()
        assert named <= g.nonterminals, seed
        assert productivity(g).reachable <= g.nonterminals, seed


def test_productivity_table(fx4):
    table = productivity(fx4)
    assert table.productive == {"q", "bot"}
    assert table.reachable == {"q", "bot"}


def test_elimination_keeps_only_productive_nonterminals(
        fx1, fx2g, fx2gp, fx3, fx4, fx5, fx6):
    # over a zero-divisor free semiring the eliminated grammar is the
    # productive part of the input; the support decisions read the
    # input's productivity table instead and do not rely on this
    grammars = [fx1, fx2g, fx2gp, fx3, fx4, fx5, fx6]
    grammars += [random_wtgc(seed) for seed in range(200)]
    grammars += [random_eq_restricted(seed) for seed in range(300)]
    for g in grammars:
        h = eliminate_zero_derivations(g)
        assert productivity(h).productive == h.nonterminals


def test_rejects_out_of_class_grammars(fx1, fx5, fx6):
    for g in (fx1, fx5, fx6):
        with pytest.raises(DecisionError):
            is_support_empty(g)
        with pytest.raises(DecisionError):
            is_support_finite(g)


def test_enumerate_support_example1(fx1):
    got = [term_str(x) for x in enumerate_support(fx1, 7)]
    assert got == ["sigma(gamma(alpha),alpha)",
                   "sigma(gamma(gamma(alpha)),gamma(alpha))"]


def test_enumerate_support_empty_grammar():
    alphabet = RankedAlphabet({"alpha": 0})
    g = Wtgc({"q"}, alphabet, {"q": 1}, [], NATURAL)
    assert enumerate_support(g, 5) == []


def test_enumerate_support_contains_separation_family(fx5):
    support = set(enumerate_support(fx5, 7))
    t2, tp2 = separation_family(2)
    assert t2 in support and tp2 in support


def test_decisions_are_order_independent(fx4):
    reordered = Wtgc(fx4.nonterminals, fx4.alphabet, fx4.final,
                     list(reversed(fx4.productions)), fx4.semiring)
    assert is_support_empty(fx4) == is_support_empty(reordered)
    assert is_support_finite(fx4) == is_support_finite(reordered)


def test_window_dichotomy_on_fixtures(fx4, fx3_image):
    # infinite supports contain a member just above the height bound
    for g, member in (
            (fx4, None),
            (fx3_image, t("sigma", gammas(8, ALPHA), gammas(7, ALPHA)))):
        bound = grammar_height(g)
        if member is None:
            member = leaf("a")
            for _ in range(bound + 1):
                member = t("g", member, member)
        assert member.height == bound + 1
        assert evaluate(g, member) != g.semiring.zero
        assert is_support_finite(g) is False


def test_finite_fixture_respects_height_bound():
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    g = sinkful({"q"}, alphabet, {"q": 1},
                [Production(t("gamma", leaf("q")), "q", 2),
                 Production(ALPHA, "q", 1)])
    assert is_support_finite(g) is False
    chain = sinkful({"q", "r"}, alphabet, {"r": 1},
                    [Production(ALPHA, "q", 1),
                     Production(t("gamma", leaf("q")), "r", 1)])
    assert is_support_finite(chain) is True
    bound = grammar_height(chain)
    for member in enumerate_support(chain, 8):
        assert member.height <= bound


def test_finiteness_analysis_reasons(fx4, fx3_image):
    from wtgc.decision import finiteness_analysis

    finite_g = sinkful({"q"}, RankedAlphabet({"alpha": 0, "gamma": 1}),
                       {"q": 1}, [Production(ALPHA, "q", 1)])
    verdict, reason = finiteness_analysis(finite_g)
    assert verdict and reason == "no productive cycle"
    verdict, reason = finiteness_analysis(fx3_image)
    assert not verdict and reason.startswith("cycle:")
    # an ungoverned sink slot next to a real child is not a cycle, yet
    # the slot holds arbitrary trees
    alphabet = RankedAlphabet({"alpha": 0, "sigma": 2})
    free_slot = sinkful({"q1", "q2"}, alphabet, {"q2": 1},
                        [Production(ALPHA, "q1", 1),
                         Production(t("sigma", leaf("q1"), leaf("bot")),
                                    "q2", 1)])
    verdict, reason = finiteness_analysis(free_slot)
    assert not verdict and "sink-governed slot" in reason
    assert len(enumerate_support(free_slot, 7)) > 3


def test_random_grammars_sample_agreement():
    # a slice of the acceptance battery, kept small for unit runs
    for seed in range(12):
        g = random_eq_restricted(seed)
        support = enumerate_support(g, 10)
        assert is_support_empty(g) == (not support)
        bound = grammar_height(g)
        tall = [x for x in support if x.height > bound]
        if is_support_finite(g):
            assert not tall
        else:
            assert tall


def _gamma_chain(n, closed):
    """alpha -> q0 and gamma(q_i) -> q_(i+1) up to the final q_(n-1);
    `closed` adds gamma(q_(n-1)) -> q0."""
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1})
    states = [f"q{i}" for i in range(n)]
    prods = [Production(ALPHA, "q0", 1)]
    prods += [Production(t("gamma", leaf(a)), b, 1)
              for a, b in zip(states, states[1:])]
    if closed:
        prods.append(Production(t("gamma", leaf(states[-1])), "q0", 1))
    return sinkful(states, alphabet, {states[-1]: 1}, prods), states


def test_finiteness_of_a_long_chain_needs_no_recursion():
    from wtgc.decision import finiteness_analysis

    chain, _ = _gamma_chain(1500, closed=False)
    assert is_support_empty(chain) is False
    assert finiteness_analysis(chain) == (True, "no productive cycle")
    loop, states = _gamma_chain(1500, closed=True)
    # over nat zero elimination keeps the input's names
    assert finiteness_analysis(loop) == (
        False, "cycle: " + " -> ".join(states + ["q0"]))


# -- the class enumerator against brute force --------------------------------


def brute_support(g, max_size):
    """The trees of size <= max_size with nonzero weight, each weighed by
    `evaluate` on a fresh copy of the grammar."""
    copy = Wtgc(g.nonterminals, g.alphabet, g.final, g.productions,
                g.semiring)
    zero = g.semiring.zero
    return [x for x in enumerate_trees(g.alphabet, max_size)
            if evaluate(copy, x) != zero]


def by_classes(g):
    cls = classify(g)
    return cls.normalized and cls.classic


def random_brother(seed):
    """A small random normalized grammar whose constraints are eq and ne
    pairs of child positions, over nat, arctic or Z/4."""
    rng = random.Random(seed)
    semiring = rng.choice([NATURAL, ARCTIC, IntegersMod(4)])
    symbols = {"alpha": 0, "gamma": 1, "sigma": 2}
    symbols.update(rng.choice([{}, {"beta": 0}, {"tau": 3}]))
    qs = ["q1", "q2", "q3"][:rng.randint(1, 3)]
    prods = [Production(ALPHA, qs[0], 1)]
    for _ in range(rng.randint(3, 7)):
        name = rng.choice(sorted(symbols))
        k = symbols[name]
        pairs = [((i,), (j,)) for i in range(1, k + 1)
                 for j in range(i + 1, k + 1)]
        weight = rng.randint(1, 3)
        if semiring is ARCTIC and rng.random() < 0.2:
            weight = 0  # the arctic one
        prods.append(Production(
            t(name, *(leaf(rng.choice(qs)) for _ in range(k))),
            rng.choice(qs), weight,
            [pair for pair in pairs if rng.random() < 0.4],
            [pair for pair in pairs if rng.random() < 0.3]))
    final = {q: rng.randint(1, 2) for q in qs if rng.random() < 0.6}
    return Wtgc(qs, RankedAlphabet(symbols), final or {qs[-1]: 1}, prods,
                semiring)


def test_class_enumerator_agrees_with_brute_force():
    grammars = [random_eq_restricted(seed) for seed in range(100)]
    grammars += [random_brother(seed) for seed in range(60)]
    semirings = {g.semiring.name for g in grammars}
    assert {"nat", "arctic"} <= semirings and len(semirings) == 3
    for i, g in enumerate(grammars):
        assert by_classes(g), i
        assert enumerate_support(g, 8) == brute_support(g, 8), i


def test_class_enumerator_on_a_rank_three_symbol():
    # h(x,y,x) with x != y, and h over three equal children
    alphabet = RankedAlphabet({"a": 0, "b": 0, "g": 1, "h": 3})
    q, p = leaf("q"), leaf("p")
    g = Wtgc({"q", "p"}, alphabet, {"p": 1}, [
        Production(leaf("a"), "q", 1),
        Production(leaf("b"), "q", 2),
        Production(t("g", q), "q", 1),
        Production(t("h", q, q, q), "p", 1, [((1,), (3,))], [((1,), (2,))]),
        Production(t("h", q, q, q), "p", 3, [((1,), (2,)), ((2,), (3,))]),
        Production(t("h", p, q, p), "p", 1, [((1,), (3,))]),
    ], NATURAL)
    assert by_classes(g)
    support = enumerate_support(g, 8)
    assert support == brute_support(g, 8)
    assert [term_str(x) for x in support[:4]] == [
        "h(a,a,a)", "h(a,b,a)", "h(b,a,b)", "h(b,b,b)"]


def test_other_grammars_are_weighed_tree_by_tree(fx4, fx3_image):
    grammars = [fx4, fx3_image] + [random_wtgc(seed) for seed in range(30)]
    for i, g in enumerate(grammars):
        assert not by_classes(g), i
        assert enumerate_support(g, 7) == brute_support(g, 7), i


def test_only_the_per_tree_path_fills_the_enumeration_cache():
    alphabet = RankedAlphabet({"leaf_only_here": 0, "node_only_here": 2})
    q = leaf("q")
    node = t("node_only_here", q, q)
    flat = Wtgc({"q"}, alphabet, {"q": 1}, [
        Production(leaf("leaf_only_here"), "q", 1),
        Production(node, "q", 1, [((1,), (2,))])], NATURAL)
    assert [x.size for x in enumerate_support(flat, 7)] == [1, 3, 7]
    assert alphabet not in trees._ENUM_CACHE
    below = Wtgc({"q"}, alphabet, {"q": 1}, [
        Production(leaf("leaf_only_here"), "q", 1),
        Production(node, "q", 1, [((1,), (2, 1))])], NATURAL)
    support = enumerate_support(below, 7)
    assert alphabet in trees._ENUM_CACHE
    assert support == brute_support(below, 7)
