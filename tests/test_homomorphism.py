import sys

import pytest

from conftest import gammas, random_wta_and_hom, t
from wtgc.errors import HomomorphismError
from wtgc.grammar import (
    Production,
    Wtgc,
    classify,
    eq_restriction,
    production_str,
)
from wtgc.homomorphism import (
    TreeHom,
    annotated_symbols,
    apply,
    hom_image_stage_one,
    image_grammar,
    image_weight_oracle,
    preimage,
    relabeling_hom,
)
from wtgc.semantics import (
    derivation_weight,
    derivations,
    evaluate,
    incorporated,
)
from wtgc.semiring import NATURAL
from wtgc.transforms import complement_support, support_automaton
from wtgc.trees import (
    RankedAlphabet,
    Tree,
    enumerate_trees,
    leaf,
    substitute,
    term_str,
)

ALPHA = leaf("alpha")


def test_apply_example(fx3_hom):
    image = apply(fx3_hom, t("phi", t("gamma", ALPHA)))
    assert image == t("sigma", gammas(2, ALPHA), gammas(1, ALPHA))


def test_apply_identity(fx3):
    ident = relabeling_hom(fx3.alphabet, {}, fx3.alphabet)
    for tree in enumerate_trees(fx3.alphabet, 5):
        assert apply(ident, tree) == tree


def test_apply_merges_symbols(fx3_hom):
    assert apply(fx3_hom, t("epsilon", ALPHA)) == t("gamma", ALPHA)
    assert apply(fx3_hom, t("gamma", ALPHA)) == t("gamma", ALPHA)


def test_apply_rejects_unknown_symbol(fx3_hom):
    with pytest.raises(HomomorphismError):
        apply(fx3_hom, leaf("zeta"))


def test_apply_rejects_wrong_arities(fx3_hom):
    with pytest.raises(HomomorphismError, match="arity mismatch at 'gamma'"):
        apply(fx3_hom, t("gamma", ALPHA, ALPHA))
    with pytest.raises(HomomorphismError, match="arity mismatch at 'phi'"):
        apply(fx3_hom, leaf("phi"))


def test_deep_trees_need_no_recursion(fx2g):
    ident = relabeling_hom(fx2g.alphabet, {}, fx2g.alphabet)
    deep = gammas(20000, ALPHA)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert substitute(gammas(20000, leaf("x1")), {"x1": ALPHA}) == deep
        assert apply(ident, deep) == deep
        assert preimage(ident, deep) == [deep]
        assert image_weight_oracle(ident, fx2g, deep) == 40000
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("index", ["3", "10", "1" * 5000],
                         ids=["3", "10", "5000 digits"])
def test_out_of_range_variable_is_a_hom_error(index):
    # `int` reads at most 4300 digits; a longer index must still be
    # reported as out of range, not as a bare ValueError
    source = RankedAlphabet({"alpha": 0, "pi": 2})
    target = RankedAlphabet({"alpha": 0, "sigma": 2})
    rhs = {"alpha": ALPHA, "pi": t("sigma", leaf("x1"), leaf("x" + index))}
    with pytest.raises(HomomorphismError, match="out of range"):
        TreeHom(source, target, rhs)



def test_homomorphism_errors(fx3_hom):
    # each error of a hom and of the image construction, message in full
    source = RankedAlphabet({"alpha": 0, "pi": 2})
    target = RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})
    x1, x2 = leaf("x1"), leaf("x2")
    wta = Wtgc({"q"}, source, {"q": 1},
               [Production(ALPHA, "q", 1),
                Production(t("pi", leaf("q"), leaf("q")), "q", 1)], NATURAL)
    deleting = TreeHom(source, target,
                       {"alpha": ALPHA, "pi": t("gamma", x1)})
    erasing = TreeHom(source, target, {"alpha": ALPHA, "pi": x2})
    needs = ("image construction needs a nondeleting and nonerasing "
             "homomorphism")
    cases = [
        (lambda: TreeHom(source, target, {"alpha": ALPHA}),
         "no image for 'pi'"),
        (lambda: TreeHom(source, target,
                         {"alpha": ALPHA, "pi": t("zeta", x1, x2)}),
         "undeclared target symbol 'zeta'"),
        (lambda: TreeHom(source, target,
                         {"alpha": ALPHA, "pi": t("sigma", x1)}),
         "arity mismatch at 'sigma'"),
        (lambda: image_grammar(wta, deleting), needs),
        (lambda: image_grammar(wta, erasing), needs),
        (lambda: image_grammar(wta, fx3_hom),
         "homomorphism source alphabet mismatch"),
    ]
    for call, message in cases:
        with pytest.raises(HomomorphismError) as info:
            call()
        assert str(info.value) == message

def test_flags(fx3_hom):
    assert fx3_hom.nondeleting and fx3_hom.nonerasing
    # the flags are cached on first use; they take no part in equality
    same = TreeHom(fx3_hom.source, fx3_hom.target, fx3_hom.rhs)
    assert same == fx3_hom and repr(same) == repr(fx3_hom)
    source = RankedAlphabet({"alpha": 0, "pi": 2})
    target = RankedAlphabet({"alpha": 0, "gamma": 1})
    deleting = TreeHom(source, target,
                       {"alpha": ALPHA, "pi": t("gamma", leaf("x1"))})
    assert not deleting.nondeleting
    erasing = TreeHom(source, RankedAlphabet({"alpha": 0, "pi": 2}),
                      {"alpha": ALPHA,
                       "pi": leaf("x1")})
    assert not erasing.nonerasing


def test_preimage_example(fx3_hom):
    u = t("sigma", gammas(2, ALPHA), gammas(1, ALPHA))
    found = preimage(fx3_hom, u)
    assert set(found) == {t("phi", t("gamma", ALPHA)),
                          t("phi", t("epsilon", ALPHA))}
    assert preimage(fx3_hom, t("sigma", gammas(1, ALPHA),
                               gammas(1, ALPHA))) == []


def test_preimage_identity(fx3):
    ident = relabeling_hom(fx3.alphabet, {}, fx3.alphabet)
    for tree in enumerate_trees(fx3.alphabet, 5):
        assert preimage(ident, tree) == [tree]


def test_preimage_rejects_deleting_hom():
    source = RankedAlphabet({"alpha": 0, "pi": 2})
    target = RankedAlphabet({"alpha": 0, "gamma": 1})
    deleting = TreeHom(source, target,
                       {"alpha": ALPHA, "pi": t("gamma", leaf("x1"))})
    with pytest.raises(HomomorphismError):
        preimage(deleting, t("gamma", ALPHA))


def test_preimage_agrees_with_apply(fx3, fx3_hom):
    target_alphabet = fx3_hom.target
    sources = list(enumerate_trees(fx3.alphabet, 5))
    for u in enumerate_trees(target_alphabet, 5):
        found = set(preimage(fx3_hom, u))
        brute = {s for s in sources if apply(fx3_hom, s) == u}
        assert found == brute
        assert all(x.size <= u.size for x in found)


def test_apply_is_size_monotone(fx3, fx3_hom):
    for tree in enumerate_trees(fx3.alphabet, 6):
        assert apply(fx3_hom, tree).size >= tree.size


def test_image_weight_oracle(fx3, fx3_hom):
    u = t("sigma", gammas(3, ALPHA), gammas(2, ALPHA))
    assert image_weight_oracle(fx3_hom, fx3, u) == 9
    assert image_weight_oracle(fx3_hom, fx3,
                               t("sigma", ALPHA, ALPHA)) == 0
    assert image_weight_oracle(fx3_hom, fx3,
                               t("sigma", gammas(1, ALPHA), ALPHA)) == 1


def test_stage_one_matches_worked_example(fx3, fx3_hom):
    stage = hom_image_stage_one(fx3, fx3_hom)
    cls = classify(stage)
    assert cls.positive and cls.classic
    assert eq_restriction(stage) is not None
    named = {production_str(p, stage.semiring) for p in stage.productions}
    # annotated productions (ids follow the canonical production order:
    # p1 alpha, p2 epsilon, p3 gamma, p4 phi)
    assert "alpha#p1 -> q @ 1" in named
    assert "gamma#p3(q) -> q @ 2" in named
    assert "gamma#p2(q) -> q @ 1" in named
    assert "sigma#p4(gamma(q),bot) -> q' [eq 1.1=2] @ 1" in named
    for name, rank in stage.alphabet.symbols():
        sink = f"{name}({','.join(['bot'] * rank)}) -> bot @ 1" if rank \
            else f"{name} -> bot @ 1"
        assert sink in named


def test_stage_one_derivations_are_singletons(fx3, fx3_hom):
    stage = hom_image_stage_one(fx3, fx3_hom)
    for tree in enumerate_trees(stage.alphabet, 4):
        for q in fx3.nonterminals:
            assert len(derivations(stage, tree, q)) <= 1


def annotated_image(g, h, tree, d):
    """The annotated target-side tree determined by a source derivation:
    the root symbol of each rhs image is tagged with the production used
    at that node, duplicates are filled with plain copies."""
    p = d.steps[-1][0]
    child_images = [
        annotated_image(g, h, c, incorporated(d, (i,)))
        for i, c in enumerate(tree.children, start=1)]
    u = h.rhs[tree.label]

    def build(node):
        if not node.children and node.label.startswith("x"):
            return child_images[int(node.label[1:]) - 1]
        return Tree(node.label, [build(c) for c in node.children])

    body = build(u)
    return Tree(annotated_symbols(g, h)[u.label, g.prod_id(p)],
                body.children)


def test_stage_one_accepts_exactly_the_annotated_images(fx3, fx3_hom):
    stage = hom_image_stage_one(fx3, fx3_hom)
    for tree in enumerate_trees(fx3.alphabet, 4):
        for q in fx3.nonterminals:
            for d in derivations(fx3, tree, q):
                s = annotated_image(fx3, fx3_hom, tree, d)
                image_ds = derivations(stage, s, q)
                assert len(image_ds) == 1
                assert derivation_weight(stage, image_ds[0]) \
                    == derivation_weight(fx3, d)


def test_image_grammar_matches_worked_example(fx3, fx3_hom, fx3_image):
    named = {production_str(p, fx3_image.semiring)
             for p in fx3_image.productions}
    assert named == {
        "alpha -> q @ 1",
        "gamma(q) -> q @ 3",  # weights 2 + 1 collapse
        "sigma(gamma(q),bot) -> q' [eq 1.1=2] @ 1",
        "alpha -> bot @ 1",
        "gamma(bot) -> bot @ 1",
        "sigma(bot,bot) -> bot @ 1",
    }
    assert eq_restriction(fx3_image) is not None
    cls = classify(fx3_image)
    assert cls.positive and cls.classic


def test_image_grammar_powers_of_three(fx3, fx3_hom, fx3_image):
    for n in range(7):
        u = t("sigma", gammas(n + 1, ALPHA), gammas(n, ALPHA))
        assert evaluate(fx3_image, u) == 3 ** n


def test_image_grammar_agrees_with_oracle(fx3, fx3_hom, fx3_image):
    for u in enumerate_trees(fx3_image.alphabet, 7):
        assert evaluate(fx3_image, u) \
            == image_weight_oracle(fx3_hom, fx3, u), term_str(u)


def test_random_images_match_the_oracles():
    # images of random WTAs under homomorphisms that copy variables
    # against the preimage sums on every tree of up to 7 nodes, and the
    # support automata and complements of the first 30 images too (that
    # of seed 58 alone has 48,421 productions and takes 4 s to build)
    nonzero = 0
    for seed in range(200):
        g, h = random_wta_and_hom(seed)
        image = image_grammar(g, h)
        built = [(image, lambda w: w)]
        if seed < 30:
            built += [(support_automaton(image), lambda w: int(w != 0)),
                      (complement_support(image), lambda w: int(w == 0))]
        for u in enumerate_trees(h.target, 7):
            w = image_weight_oracle(h, g, u)
            for out, expected in built:
                assert evaluate(out, u) == expected(w), (seed, term_str(u))
            nonzero += w != 0
    assert nonzero == 1066


@pytest.mark.parametrize("symbol, rhs", [
    ("g#1", {"epsilon": t("g#1", leaf("x1"))}),
    ("gamma#p2", {"phi": t("sigma", t("gamma#p2", leaf("x1")), leaf("x1"))}),
], ids=["g#1", "gamma#p2"])
def test_images_over_target_symbols_holding_hash(fx3, fx3_hom, symbol, rhs):
    # `gamma#p2` also spells gamma's copy annotated with fx3's p2, and
    # the relabeling read `g#1` as an annotated `g`
    target = RankedAlphabet({**dict(fx3_hom.target.symbols()), symbol: 1})
    h = TreeHom(fx3.alphabet, target, {**fx3_hom.rhs, **rhs})
    image = image_grammar(fx3, h)
    assert image.alphabet == target
    for u in enumerate_trees(target, 6):
        assert evaluate(image, u) == image_weight_oracle(h, fx3, u), \
            term_str(u)


def test_image_grammar_rejects_constrained_input(fx1, fx3_hom):
    with pytest.raises(HomomorphismError):
        image_grammar(fx1, fx3_hom)
