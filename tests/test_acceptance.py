"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Expected values are the worked examples (exact, no tolerances;
every carrier is discrete) plus independent brute-force oracles."""

import time
from contextlib import contextmanager

from conftest import FIXTURES, gammas, random_eq_restricted, t
from wtgc.cli import main as cli_main
from wtgc.decision import (
    enumerate_support,
    is_support_empty,
    is_support_finite,
)
from wtgc.errors import DecisionError
from wtgc.grammar import production_str
from wtgc.homomorphism import hom_image_stage_one, image_weight_oracle
from wtgc.pumping import (
    ensure_nonbot_child,
    grammar_height,
    pump,
    separation_family,
    substitute_derivation,
)
from wtgc.semantics import (
    check_unambiguous_upto,
    derivation_weight,
    derivations,
    evaluate,
    replay_derivation,
    state_weight,
)
from wtgc.semiring import ARCTIC, NEG_INF, support_hom
from wtgc.syntax import parse_grammar, parse_term, serialize_grammar
from wtgc.transforms import (
    disambiguate,
    disjoint_union,
    eliminate_zero_derivations,
    hadamard,
)
from wtgc.trees import (
    Tree,
    enumerate_trees,
    leaf,
    term_str,
    walk,
)

ALPHA = leaf("alpha")


@contextmanager
def criterion(number, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {number} ({label}): FAIL (over {budget}s budget)")
        raise AssertionError(f"criterion {number} took {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_example1_reproduction(fx1):
    with criterion(1, "example-1 reproduction", budget=5.0):
        family = set()
        for i in range(6):
            member = t("sigma", gammas(i + 1, ALPHA), gammas(i, ALPHA))
            assert evaluate(fx1, member) == 2 * i + 1
            family.add(member)
        for tree in enumerate_trees(fx1.alphabet, 9):
            if tree not in family:
                assert evaluate(fx1, tree) == NEG_INF, term_str(tree)


def test_criterion_2_semantics_cross_oracle(
        fx1, fx2g, fx2gp, fx3, fx4, fx5, fx6):
    with criterion(2, "semantics cross-oracle", budget=60.0):
        for g in (fx1, fx2g, fx2gp, fx3, fx4, fx5, fx6):
            for tree in enumerate_trees(g.alphabet, 8):
                for q in sorted(g.nonterminals):
                    total = g.semiring.sum(
                        derivation_weight(g, d)
                        for d in derivations(g, tree, q))
                    assert total == state_weight(g, q, tree)


def _in_supp_g(tree):
    # all sigma children equal
    return all(node.children[0] == node.children[1]
               for _, node in walk(tree) if node.label == "sigma")


def _in_supp_gp(tree):
    # below every gamma whose child is a sigma, that sigma's children differ
    for _, node in walk(tree):
        if node.label != "gamma":
            continue
        child = node.children[0]
        if child.label == "sigma" and child.children[0] == child.children[1]:
            return False
    return True


def test_criterion_3_hadamard_closed_form(fx2g, fx2gp):
    with criterion(3, "hadamard closed form"):
        product = hadamard(fx2g, fx2gp)
        for tree in enumerate_trees(fx2g.alphabet, 9):
            inside = _in_supp_g(tree) and _in_supp_gp(tree)
            assert inside == (evaluate(fx2g, tree) != NEG_INF
                              and evaluate(fx2gp, tree) != NEG_INF)
            got = evaluate(product, tree)
            if inside:
                n_gamma = sum(1 for _, node in walk(tree)
                              if node.label == "gamma")
                n_sigma = sum(1 for _, node in walk(tree)
                              if node.label == "sigma")
                assert got == 3 * n_gamma + n_sigma
            else:
                assert got == NEG_INF


def test_criterion_4_hom_pipeline(fx3, fx3_hom, fx3_image):
    with criterion(4, "homomorphic image pipeline"):
        for n in range(7):
            u = t("sigma", gammas(n + 1, ALPHA), gammas(n, ALPHA))
            assert evaluate(fx3_image, u) == 3 ** n
        assert evaluate(fx3_image,
                        t("sigma", gammas(7, ALPHA), gammas(6, ALPHA))) == 729
        for u in enumerate_trees(fx3_image.alphabet, 9):
            assert evaluate(fx3_image, u) \
                == image_weight_oracle(fx3_hom, fx3, u)
        stage = hom_image_stage_one(fx3, fx3_hom)
        named = {production_str(p, stage.semiring)
                 for p in stage.productions}
        assert {"alpha#p1 -> q @ 1", "gamma#p3(q) -> q @ 2",
                "gamma#p2(q) -> q @ 1",
                "sigma#p4(gamma(q),bot) -> q' [eq 1.1=2] @ 1"} <= named
        final = {production_str(p, fx3_image.semiring)
                 for p in fx3_image.productions}
        assert final == {
            "alpha -> q @ 1", "gamma(q) -> q @ 3",
            "sigma(gamma(q),bot) -> q' [eq 1.1=2] @ 1",
            "alpha -> bot @ 1", "gamma(bot) -> bot @ 1",
            "sigma(bot,bot) -> bot @ 1"}


def test_criterion_5_disambiguation(fx2g, fx2gp):
    with criterion(5, "disambiguation"):
        union = disjoint_union(fx2g, fx2gp)
        h = support_hom(ARCTIC)
        out = disambiguate(union, h)
        # production table of the worked example, keyed on subset states
        for p in out.productions:
            members = [frozenset(c.label[4:-1].split(".")) - {""}
                       for c in p.lhs.children]
            target = frozenset(p.target[4:-1].split(".")) - {""}
            assert p.weight == 1
            if p.lhs.label == "alpha":
                assert target == {"q", "z"} and not p.eq and not p.ineq
            elif p.lhs.label == "gamma":
                assert (p.eq, p.ineq) in (
                    (frozenset([((1, 1), (1, 2))]), frozenset()),
                    (frozenset(), frozenset([((1, 1), (1, 2))])))
                expected = members[0] & {"q"} if p.eq else members[0]
                assert target == expected
            else:
                assert (p.eq, p.ineq) in (
                    (frozenset([((1,), (2,))]), frozenset()),
                    (frozenset(), frozenset([((1,), (2,))])))
                both = members[0] & members[1]
                expected = both if p.eq else both & {"z"}
                assert target == expected
        for q in out.nonterminals:
            members = frozenset(q[4:-1].split(".")) - {""}
            assert out.final[q] == (1 if members else 0)
        assert check_unambiguous_upto(out, 9) is None
        for tree in enumerate_trees(union.alphabet, 9):
            assert evaluate(out, tree) == h(evaluate(union, tree))


def test_criterion_6_zero_divisor_elimination(fx6):
    with criterion(6, "zero-divisor elimination"):
        out = eliminate_zero_derivations(fx6)
        zero = out.semiring.zero
        for tree in enumerate_trees(out.alphabet, 8):
            assert evaluate(out, tree) == evaluate(fx6, tree)
            for q in sorted(out.nonterminals):
                for d in derivations(out, tree, q):
                    assert derivation_weight(out, d) != zero


def test_criterion_7_pumping(fx4):
    with criterion(7, "pumping"):
        base = parse_term("f(g(a,a),f(a,g(a,a)))", fx4.alphabet)
        (d,) = derivations(fx4, base, "q")
        donor = parse_term("g(a,a)", fx4.alphabet)
        (dp,) = derivations(fx4, donor, "q")
        pumped_d = substitute_derivation(fx4, d, dp, (1, 1))
        assert term_str(pumped_d.input) \
            == "f(g(g(a,a),g(a,a)),f(a,g(g(a,a),g(a,a))))"
        assert replay_derivation(fx4, pumped_d)

        prepared = eliminate_zero_derivations(ensure_nonbot_child(fx4))
        tall = leaf("a")
        for _ in range(grammar_height(prepared) + 1):
            tall = Tree("g", [tall, tall])
        tall = parse_term(term_str(tall), prepared.alphabet)
        (q,) = prepared.final_support()
        (base_d,) = derivations(prepared, tall, q)
        grown = pump(prepared, tall, base_d, 3)
        assert len(grown) >= 3
        heights = [tall.height] + [tree.height for tree, _ in grown]
        assert all(a < b for a, b in zip(heights, heights[1:]))
        for tree, deriv in grown:
            assert replay_derivation(prepared, deriv)
            assert derivation_weight(prepared, deriv) \
                != prepared.semiring.zero
            assert evaluate(prepared, tree) != prepared.semiring.zero


def test_criterion_8_separation_family(fx5):
    with criterion(8, "separation family", budget=30.0):
        for n in range(1, 8):
            tn, tpn = separation_family(n)
            assert evaluate(fx5, tn) == 1
            assert evaluate(fx5, tpn) == 1
        t7, tp7 = separation_family(7)
        assert t7.size == 255 and tp7.size == 255


def test_criterion_9_decisions(fx1, fx2g, fx2gp, fx3, fx4, fx5, fx6,
                               fx3_image):
    with criterion(9, "support decisions"):
        # fixtures inside the decidable class, against the enumeration
        for g, witness in (
                (fx4, None),
                (fx3_image,
                 t("sigma", gammas(8, ALPHA), gammas(7, ALPHA)))):
            support = enumerate_support(g, 10)
            assert is_support_empty(g) == (not support)
            assert is_support_finite(g) is False
            bound = grammar_height(g)
            if witness is None:
                witness = leaf("a")
                for _ in range(bound + 1):
                    witness = Tree("g", [witness, witness])
            assert witness.height > bound
            assert evaluate(g, witness) != g.semiring.zero
        # fixtures outside the decidable class are rejected, not guessed
        for g in (fx1, fx2g, fx2gp, fx3, fx5, fx6):
            for procedure in (is_support_empty, is_support_finite):
                try:
                    procedure(g)
                    raise AssertionError("expected a rejection")
                except DecisionError:
                    pass
        # 100 seeded random eq-restricted grammars, size-10 enumeration
        for seed in range(100):
            g = random_eq_restricted(seed)
            support = enumerate_support(g, 10)
            assert is_support_empty(g) == (not support), seed
            bound = grammar_height(g)
            tall = [x for x in support if x.height > bound]
            if is_support_finite(g):
                assert not tall, seed
            else:
                assert tall, seed


def test_criterion_10_round_trips_and_goldens():
    with criterion(10, "round-trips and byte-stable output"):
        for name in ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6"):
            source = (FIXTURES / f"{name}.wtg").read_text()
            g = parse_grammar(source)
            assert parse_grammar(serialize_grammar(g)) == g
            assert serialize_grammar(parse_grammar(serialize_grammar(g))) \
                == serialize_grammar(g)
        import contextlib
        import io

        commands = [
            ["eval", "--grammar", str(FIXTURES / "fx1.wtg"), "--tree",
             "sigma(gamma(gamma(alpha)),gamma(alpha))"],
            ["derivs", "--grammar", str(FIXTURES / "fx1.wtg"), "--tree",
             "sigma(gamma(gamma(alpha)),gamma(alpha))"],
            ["image", "--grammar", str(FIXTURES / "fx3.wtg"), "--hom",
             str(FIXTURES / "fx3.hom")],
            ["support", "--unambiguous", "--grammar",
             str(FIXTURES / "fx1.wtg")],
            ["separation", "--n", "4"],
            ["image-eval", "--grammar", str(FIXTURES / "fx3.wtg"), "--hom",
             str(FIXTURES / "fx3.hom"), "--tree",
             "sigma(gamma(gamma(gamma(alpha))),gamma(gamma(alpha)))",
             "--format", "json"],
        ]
        outputs = []
        for _ in range(2):
            batch = []
            for argv in commands:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli_main(argv)
                assert code == 0
                batch.append(buffer.getvalue())
            outputs.append(batch)
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == "3\n"
        assert outputs[0][5] == '{"weight": "9"}\n'
