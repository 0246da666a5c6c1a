import pytest

from conftest import leftmost_key, t
from wtgc.errors import InvalidPositionError, PumpError
from wtgc.grammar import Production, Wtgc, eq_restriction
from wtgc.pumping import (
    _sink_steps,
    _sink_table,
    base_derivation,
    ensure_nonbot_child,
    grammar_height,
    pump,
    separation_family,
    substitute_derivation,
)
from wtgc.semantics import (
    Derivation,
    absolute_steps,
    derivation_weight,
    derivations,
    evaluate,
    replay_derivation,
)
from wtgc.semiring import NATURAL, IntegersMod
from wtgc.syntax import parse_term
from wtgc.transforms import eliminate_zero_derivations
from wtgc.trees import (
    RankedAlphabet,
    Tree,
    enumerate_trees,
    leaf,
    subtree,
    term_str,
    walk,
)

BASE_TREE = "f(g(a,a),f(a,g(a,a)))"
FIG7_TREE = "f(g(g(a,a),g(a,a)),f(a,g(g(a,a),g(a,a))))"


@pytest.fixture
def fx4_site(fx4):
    """The base derivation and the donor derivation of the figure."""
    base = parse_term(BASE_TREE, fx4.alphabet)
    (d,) = derivations(fx4, base, "q")
    donor = parse_term("g(a,a)", fx4.alphabet)
    (dp,) = derivations(fx4, donor, "q")
    return d, dp


def test_substitution_reproduces_figure_tree(fx4, fx4_site):
    new_d = substitute_derivation(fx4, *fx4_site, (1, 1))
    assert term_str(new_d.input) == FIG7_TREE
    assert new_d.target == "q"
    assert replay_derivation(fx4, new_d)
    assert evaluate(fx4, new_d.input) == 1


def test_substitution_step_list(fx4, fx4_site):
    new_d = substitute_derivation(fx4, *fx4_site, (1, 1))
    got = [(fx4.prod_id(p), w) for p, w in absolute_steps(new_d)]
    # canonical ids: p1 = a->bot, p2 = a->q, p4 = f(q,f(q,bot))->q,
    # p5 = g(bot,bot)->bot, p6 = g(q,bot)->q
    assert got == [
        ("p2", (1, 1, 1)), ("p1", (1, 1, 2)), ("p6", (1, 1)),
        ("p1", (1, 2, 1)), ("p1", (1, 2, 2)), ("p5", (1, 2)), ("p6", (1,)),
        ("p2", (2, 1)),
        ("p1", (2, 2, 1, 1)), ("p1", (2, 2, 1, 2)), ("p5", (2, 2, 1)),
        ("p1", (2, 2, 2, 1)), ("p1", (2, 2, 2, 2)), ("p5", (2, 2, 2)),
        ("p5", (2, 2)), ("p4", ()),
    ]


def test_substitution_at_root_returns_donor(fx4, fx4_site):
    d, dp = fx4_site
    new_d = substitute_derivation(fx4, d, dp, ())
    assert new_d.input == dp.input
    assert new_d.steps == dp.steps


def test_substitution_leaves_parallel_positions_alone(fx4, fx4_site):
    # position 2.1 equals the replaced subtree but is not constrained to it
    d, dp = fx4_site
    new_tree = substitute_derivation(fx4, d, dp, (1, 1)).input
    assert subtree(d.input, (2, 1)) == subtree(d.input, (1, 1))
    assert subtree(new_tree, (2, 1)) == leaf("a")
    assert subtree(new_tree, (1, 1)) == parse_term("g(a,a)", fx4.alphabet)


def test_substitution_rejects_target_mismatch(fx4, fx4_site):
    with pytest.raises(PumpError):
        substitute_derivation(fx4, *fx4_site, (2, 2))


def test_substitution_rejects_malformed_bases(fx4, fx4_site):
    d, dp = fx4_site
    steps = d.steps
    root = steps[-1]
    below_q = next(p for p, _, _ in steps if p.target == "q" and not p.eq)

    def base(new_steps):
        return Derivation(new_steps, d.input, "q")

    with pytest.raises(PumpError, match="does not replay"):
        substitute_derivation(fx4, base(steps[:-1]), dp, (1, 1))
    # a step at 2, which the root's lhs f(q,f(q,bot)) covers
    covered = base(steps[:-1] + ((below_q, (2,), 0), (root[0], (), 4)))
    assert absolute_steps(covered)[-2:] == ((below_q, (2,)), (root[0], ()))
    with pytest.raises(PumpError, match="does not replay"):
        substitute_derivation(fx4, covered, dp, (2,))
    with pytest.raises(InvalidPositionError, match="position 3 not in"):
        substitute_derivation(fx4, base(steps), dp, (3,))


def test_substitution_rejects_a_base_that_does_not_replay(fx4):
    # g(q,bot) needs its second child derived to bot; this base derives
    # it to q, so it does not replay, though each step sits where the
    # root's variables are
    base = parse_term("g(a,a)", fx4.alphabet)
    prods = {fx4.spellings[i]: p for i, p in enumerate(fx4.productions)}
    to_q, root = prods["a -> q @ 1"], prods["g(q,bot) -> q [eq 1=2] @ 1"]
    d = Derivation(((to_q, (1,), 0), (to_q, (2,), 0), (root, (), 2)), base,
                   "q")
    assert not replay_derivation(fx4, d)
    donor = parse_term("g(a,a)", fx4.alphabet)
    (dp,) = derivations(fx4, donor, "q")
    with pytest.raises(PumpError, match="does not replay"):
        substitute_derivation(fx4, d, dp, (2,))


def test_substitution_rejects_a_donor_that_does_not_replay(fx4, fx4_site):
    # a derivation of the donor tree g(a,a) to q that derives the second
    # child to q where g(q,bot) needs bot
    base, dp = fx4_site
    prods = {fx4.spellings[i]: p for i, p in enumerate(fx4.productions)}
    to_q, root = prods["a -> q @ 1"], prods["g(q,bot) -> q [eq 1=2] @ 1"]
    d = Derivation(((to_q, (1,), 0), (to_q, (2,), 0), (root, (), 2)),
                   dp.input, "q")
    with pytest.raises(PumpError, match="donor derivation does not"):
        substitute_derivation(fx4, base, d, (1, 1))


def offender_grammar():
    # the all-sink production is unconstrained: a sink-to-sink equality
    # pair would have no governing index and fall outside the class
    alphabet = RankedAlphabet({"a": 0, "f": 2})
    prods = [
        Production(leaf("a"), "q", 1),
        Production(t("f", leaf("bot"), leaf("bot")), "q", 2),
        Production(leaf("a"), "bot", 1),
        Production(t("f", leaf("bot"), leaf("bot")), "bot", 1),
    ]
    return Wtgc({"q", "bot"}, alphabet, {"q": 1}, prods, NATURAL)


def test_ensure_nonbot_child_rewrites_offenders():
    g = offender_grammar()
    out = ensure_nonbot_child(g)
    assert "top" in out.nonterminals
    rewritten = [p for p in out.productions
                 if p.target == "q" and p.lhs.label == "f"]
    assert len(rewritten) == 1
    assert rewritten[0].lhs == t("f", leaf("top"), leaf("bot"))
    assert eq_restriction(out) is not None
    for tree in enumerate_trees(g.alphabet, 7):
        assert evaluate(g, tree) == evaluate(out, tree)


def test_ensure_nonbot_child_identity(fx4):
    assert ensure_nonbot_child(fx4) is fx4


def test_grammar_height(fx4, fx3_image):
    assert grammar_height(fx4) == 6  # (2 + 1) * height of the f-lhs
    # single nullary production: every lhs is one node, so the bound
    # degenerates to zero and nothing is tall enough to pump
    g = Wtgc({"q"}, RankedAlphabet({"alpha": 0}), {"q": 1},
             [Production(leaf("alpha"), "q", 1)], NATURAL)
    assert grammar_height(g) == 0
    assert grammar_height(fx3_image) == (3 + 1) * 2


def tall_square(n):
    out = leaf("a")
    for _ in range(n):
        out = Tree("g", [out, out])
    return out


@pytest.fixture
def fx4_prepared(fx4):
    return eliminate_zero_derivations(ensure_nonbot_child(fx4))


def test_pump_grows_strictly(fx4_prepared):
    g = fx4_prepared
    base = parse_term(term_str(tall_square(7)), g.alphabet)
    (q,) = g.final_support()
    (d,) = derivations(g, base, q)
    out = pump(g, base, d, 3)
    assert len(out) == 3
    heights = [base.height] + [tree.height for tree, _ in out]
    assert heights == sorted(set(heights))
    for tree, deriv in out:
        assert replay_derivation(g, deriv)
        assert derivation_weight(g, deriv) != 0
        assert evaluate(g, tree) != 0


def test_pump_zero_count(fx4_prepared):
    g = fx4_prepared
    base = parse_term(term_str(tall_square(7)), g.alphabet)
    (q,) = g.final_support()
    (d,) = derivations(g, base, q)
    assert pump(g, base, d, 0) == []


def test_pump_rejects_a_negative_count(fx4_prepared):
    g = fx4_prepared
    base = parse_term(term_str(tall_square(7)), g.alphabet)
    (q,) = g.final_support()
    (d,) = derivations(g, base, q)
    with pytest.raises(PumpError, match="negative pump count -2"):
        pump(g, base, d, -2)


def test_pump_rejects_short_trees(fx4_prepared):
    g = fx4_prepared
    base = parse_term(term_str(tall_square(3)), g.alphabet)
    (q,) = g.final_support()
    (d,) = derivations(g, base, q)
    with pytest.raises(PumpError, match="height"):
        pump(g, base, d, 1)


def test_pump_spells_positions_once_per_step(fx4_prepared, monkeypatch):
    import wtgc.pumping
    import wtgc.semantics

    calls = []

    def counted(d):
        calls.append(d)
        return absolute_steps(d)

    monkeypatch.setattr(wtgc.semantics, "absolute_steps", counted)
    monkeypatch.setattr(wtgc.pumping, "absolute_steps", counted)
    g = fx4_prepared
    base = parse_term(term_str(tall_square(7)), g.alphabet)
    (q,) = g.final_support()
    (d,) = derivations(g, base, q)
    out = pump(g, base, d, 3)
    # one spelling to replay the base, and one per pump step
    assert len(calls) <= 1 + 3
    calls.clear()
    (tree, grown), _, _ = out
    donor = derivations(g, subtree(tree, (1,)), q)[0]
    substitute_derivation(g, grown, donor, (1,), replayed=True)
    assert calls == []


def test_sink_steps_are_the_leftmost_order(fx4_prepared):
    g = fx4_prepared
    sink = eq_restriction(g).sink
    by_symbol = {p.lhs.label: p for p in g.productions if p.target == sink}
    base = parse_term(term_str(tall_square(7)), g.alphabet)
    (q,) = g.final_support()
    (d,) = derivations(g, base, q)
    for tree in [base] + [tree for tree, _ in pump(g, base, d, 3)]:
        ordered = sorted((w for w, _ in walk(tree)), key=leftmost_key)
        steps = _sink_steps(_sink_table(g, sink), tree)
        assert absolute_steps(Derivation(steps, tree, sink)) == tuple(
            (by_symbol[subtree(tree, w).label], w) for w in ordered)


def test_search_pump_base():
    alphabet = RankedAlphabet({"a": 0, "g": 1})
    g = Wtgc({"q", "bot"}, alphabet, {"q": 1},
             [Production(leaf("a"), "q", 1),
              Production(t("g", leaf("q")), "q", 1),
              Production(leaf("a"), "bot", 1),
              Production(t("g", leaf("bot")), "bot", 1)],
             NATURAL)
    assert grammar_height(g) == 3
    base = next(tree for tree in enumerate_trees(alphabet, 8)
                if tree.height > 3)
    d = base_derivation(g, base)
    assert d.target == "q"
    assert replay_derivation(g, d)
    pumped = pump(g, base, d, 2)
    assert [x[0].height for x in pumped] == [base.height + 1,
                                             base.height + 2]


def test_base_derivation_needs_an_accepting_derivation(fx4_prepared):
    # f(a,a) matches no f-production of fx4 outside the sink
    with pytest.raises(PumpError, match="no accepting nonzero derivation"):
        base_derivation(fx4_prepared, parse_term("f(a,a)",
                                                 fx4_prepared.alphabet))


def test_separation_family_examples():
    t1, tp1 = separation_family(1)
    assert term_str(t1) == "g(a,a)"
    assert term_str(tp1) == "g(a,a)"
    t2, tp2 = separation_family(2)
    assert term_str(t2) == "f(g(a,a),g(a,a))"
    assert term_str(tp2) == "fbar(g(a,a),g(a,a))"
    for n in range(1, 8):
        tn, tpn = separation_family(n)
        assert tn.size == 2 ** (n + 1) - 1
        assert tpn.size == 2 ** (n + 1) - 1
        assert tn.height == n and tpn.height == n


def test_separation_family_accepted(fx5):
    for n in range(1, 6):
        tn, tpn = separation_family(n)
        assert evaluate(fx5, tn) == 1
        assert evaluate(fx5, tpn) == 1


def test_separation_family_needs_positive_index():
    with pytest.raises(PumpError):
        separation_family(0)


def test_pump_checks_its_preconditions():
    # the grammar of test_search_pump_base, over zmod 4 with weight 2 on
    # q, so that gamma-steps multiply to zero
    alphabet = RankedAlphabet({"a": 0, "g": 1})
    plain = [Production(leaf("a"), "q", 2),
             Production(t("g", leaf("q")), "q", 2)]
    sink = [Production(leaf("a"), "bot", 1),
            Production(t("g", leaf("bot")), "bot", 1)]
    zmod4 = IntegersMod(4)
    g = Wtgc({"q", "bot"}, alphabet, {"q": 1}, plain + sink, zmod4)
    tall = parse_term("g(g(g(g(a))))", alphabet)
    other = parse_term("g(g(g(g(g(a)))))", alphabet)
    (d,) = derivations(g, tall, "q")
    (to_sink,) = derivations(g, tall, "bot")
    loose = Wtgc({"q"}, alphabet, {"q": 1}, plain, zmod4)
    (loose_d,) = derivations(loose, tall, "q")
    cases = [
        (loose, loose_d, "pumping needs an eq-restricted grammar"),
        (g, to_sink, "cannot pump a sink derivation"),
        (g, derivations(g, other, "q")[0],
         "the derivation does not replay on the given tree"),
        (g, d, "cannot pump a zero-weight derivation"),
    ]
    for grammar, derivation, message in cases:
        with pytest.raises(PumpError) as info:
            pump(grammar, tall, derivation, 1)
        assert str(info.value) == message
