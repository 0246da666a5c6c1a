import random
from pathlib import Path

import pytest

from wtgc.grammar import Production, Wtgc
from wtgc.semiring import NATURAL
from wtgc.syntax import parse_grammar, parse_hom
from wtgc.trees import RankedAlphabet, Tree, is_variable, leaf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_grammar(name):
    return parse_grammar((FIXTURES / f"{name}.wtg").read_text())


def load_hom(name, source):
    return parse_hom((FIXTURES / f"{name}.hom").read_text(), source)


def leftmost_key(w):
    """Sort key realizing the left-most derivation order on absolute
    positions: lexicographic with prefixes larger, so the root is the
    largest position."""
    return w + (float("inf"),)


def t(label, *children):
    return Tree(label, children)


def gammas(n, base):
    out = base
    for _ in range(n):
        out = Tree("gamma", [out])
    return out


@pytest.fixture(scope="session")
def fx1():
    return load_grammar("fx1")


@pytest.fixture(scope="session")
def fx2g():
    return load_grammar("fx2g")


@pytest.fixture(scope="session")
def fx2gp():
    return load_grammar("fx2gp")


@pytest.fixture(scope="session")
def fx3():
    return load_grammar("fx3")


@pytest.fixture(scope="session")
def fx3_hom(fx3):
    return load_hom("fx3", fx3.alphabet)


@pytest.fixture(scope="session")
def fx4():
    return load_grammar("fx4")


@pytest.fixture(scope="session")
def fx5():
    return load_grammar("fx5")


@pytest.fixture(scope="session")
def fx6():
    return load_grammar("fx6")


@pytest.fixture(scope="session")
def fx3_image(fx3, fx3_hom):
    from wtgc.homomorphism import image_grammar

    return image_grammar(fx3, fx3_hom)


def random_wtgc(seed: int) -> Wtgc:
    """A small random WTGc with arbitrary (often non-classic) equality
    and inequality constraints at positions that may point below the
    nonterminals of the left-hand side or outside it entirely."""
    from wtgc.semiring import ARCTIC, IntegersMod

    rng = random.Random(seed)
    semiring = rng.choice([NATURAL, ARCTIC, IntegersMod(4)])
    symbols = {"alpha": 0, "gamma": 1, "sigma": 2}
    if rng.random() < 0.3:
        symbols["beta"] = 0
    alphabet = RankedAlphabet(symbols)
    qs = [f"q{i + 1}" for i in range(rng.randint(1, 2))]

    def random_lhs(depth):
        name = rng.choice(sorted(symbols))
        children = []
        for _ in range(symbols[name]):
            if depth > 0 and rng.random() < 0.4:
                children.append(random_lhs(depth - 1))
            else:
                children.append(leaf(rng.choice(qs)))
        return Tree(name, children)

    pool = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1)]

    def random_pairs(limit):
        return [(rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(0, limit))]

    prods = []
    for _ in range(rng.randint(2, 5)):
        weight = rng.randint(1, 3)
        if semiring is ARCTIC and rng.random() < 0.2:
            weight = 0  # the arctic one
        prods.append(Production(random_lhs(1), rng.choice(qs), weight,
                                random_pairs(2), random_pairs(1)))
    if not any(not p.lhs.children or all(
            c.label in qs for c in p.lhs.children) for p in prods):
        prods.append(Production(leaf("alpha"), qs[0], 1))
    final = {rng.choice(qs): rng.randint(1, 2)}
    return Wtgc(qs, alphabet, final, prods, semiring)


def random_ne_wtgc(seed: int) -> Wtgc:
    """A small random WTGc over one leaf symbol whose inequality pairs
    often fail on small trees: they compare sibling subtrees, or a child
    with its sibling's child, and with `alpha` the only leaf such
    subtrees are often equal.  A product or restriction that drops an
    input's inequality constraints changes weights on trees of size 7
    or less."""
    from wtgc.semiring import ARCTIC

    rng = random.Random(seed)
    semiring = rng.choice([NATURAL, ARCTIC])
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})
    qs = [f"q{i + 1}" for i in range(rng.randint(1, 2))]
    pool = [((1,), (2,)), ((1,), (2,)), ((1, 1), (2,)), ((1,), (2, 1)),
            ((1, 1), (2, 1))]
    prods = [Production(leaf("alpha"), q, rng.randint(1, 3)) for q in qs]
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.3:
            prods.append(Production(t("gamma", leaf(rng.choice(qs))),
                                    rng.choice(qs), rng.randint(1, 3)))
            continue
        ne = rng.sample(pool, rng.randint(1, 2))
        eq = [((1,), (2,))] if rng.random() < 0.15 else []
        prods.append(Production(
            t("sigma", leaf(rng.choice(qs)), leaf(rng.choice(qs))),
            rng.choice(qs), rng.randint(1, 3), eq, ne))
    final = {q: rng.randint(1, 2) for q in qs if rng.random() < 0.7}
    return Wtgc(qs, alphabet, final or {qs[0]: 1}, prods, semiring)


def with_clashing_twin(g: Wtgc, seed: int) -> Wtgc:
    """g plus a twin of one of its productions of rank 2 or more: the
    same lhs, target and weight, with the equality between two of its
    children toggled.  The two then clash: they share lhs and target but
    differ in their constraint sets.  A grammar without such a
    production comes back as it is."""
    rng = random.Random(seed)
    wide = [p for p in g.productions if len(p.lhs.children) >= 2]
    if not wide:
        return g
    p = rng.choice(wide)
    i, j = sorted(rng.sample(range(1, len(p.lhs.children) + 1), 2))
    twin = Production(p.lhs, p.target, p.weight,
                      p.eq ^ {((i,), (j,))}, p.ineq)
    return Wtgc(g.nonterminals, g.alphabet, g.final,
                [*g.productions, twin], g.semiring)


def random_eq_restricted(seed: int) -> Wtgc:
    """A small random eq-restricted positive classic grammar over the
    naturals, built in layers so that support emptiness and finiteness
    are both visible to a size-10 enumeration: the bottom nonterminal is
    either leaf-only or a pure unary self-loop, and duplicating binary
    productions only ever sit above leaf-only children."""
    rng = random.Random(seed)
    symbols = {"alpha": 0, "gamma": 1}
    if rng.random() < 0.4:
        symbols["beta"] = 0
    if rng.random() < 0.4:
        symbols["delta"] = 1
    has_binary = rng.random() < 0.5
    if has_binary:
        symbols["sigma"] = 2
    alphabet = RankedAlphabet(symbols)
    nullary = sorted(n for n, r in symbols.items() if r == 0)
    unary = sorted(n for n, r in symbols.items() if r == 1)

    prods = [Production(Tree(name, [leaf("bot")] * rank), "bot", 1)
             for name, rank in alphabet.symbols()]

    q1_loop = rng.random() < 0.35
    prods.append(Production(leaf(rng.choice(nullary)), "q1",
                            rng.randint(1, 3)))
    if q1_loop:
        prods.append(Production(Tree(rng.choice(unary), [leaf("q1")]), "q1",
                                rng.randint(1, 3)))

    for _ in range(rng.randint(0, 2)):
        kind = rng.random()
        if kind < 0.3:
            prods.append(Production(leaf(rng.choice(nullary)), "q2",
                                    rng.randint(1, 3)))
        elif kind < 0.8 or not has_binary or q1_loop:
            child = rng.choice(["q1", "q2"])
            prods.append(Production(Tree(rng.choice(unary), [leaf(child)]),
                                    "q2", rng.randint(1, 3)))
        elif rng.random() < 0.5:
            prods.append(Production(Tree("sigma", [leaf("q1"), leaf("bot")]),
                                    "q2", rng.randint(1, 3),
                                    [((1,), (2,))]))
        else:
            prods.append(Production(Tree("sigma", [leaf("q1"), leaf("q1")]),
                                    "q2", rng.randint(1, 3)))

    final = {}
    if rng.random() < 0.75:
        final["q2"] = rng.randint(1, 2)
    if rng.random() < 0.4 or not final:
        final["q1"] = rng.randint(1, 2)
    return Wtgc(["q1", "q2", "bot"], alphabet, final, prods, NATURAL)


def random_wta_and_hom(seed: int):
    """A random WTA over {a:0, g:1, f:2} with 1-3 nonterminals, 1-3
    productions per symbol and nat weights 1-3, and a random
    nondeleting, nonerasing homomorphism into {b:0, h:1, s:2, t:3}
    whose right-hand sides hold each variable once or twice.  The image
    grammar ties the two copies of a variable by an equality."""
    from wtgc.homomorphism import TreeHom

    rng = random.Random(seed)
    source = RankedAlphabet({"a": 0, "g": 1, "f": 2})
    qs = [f"q{i + 1}" for i in range(rng.randint(1, 3))]
    prods = [Production(Tree(name, [leaf(rng.choice(qs))
                                    for _ in range(rank)]),
                        rng.choice(qs), rng.randint(1, 3))
             for name, rank in source.symbols()
             for _ in range(rng.randint(1, 3))]
    final = {q: rng.randint(1, 3) for q in qs if rng.random() < 0.6}
    g = Wtgc(qs, source, final or {qs[0]: 1}, prods, NATURAL)

    rhs = {}
    for name, rank in source.symbols():
        nodes = [leaf(f"x{i}") for i in range(1, rank + 1)
                 for _ in range(rng.choice((1, 1, 2)))]
        nodes += [leaf("b")] * rng.randint(0 if nodes else 1, 1)
        rng.shuffle(nodes)
        while (len(nodes) > 1 or is_variable(nodes[0].label)
               or rng.random() < 0.2):
            if len(nodes) == 1 or rng.random() < 0.2:
                i = rng.randrange(len(nodes))
                nodes[i] = Tree("h", [nodes[i]])
            else:
                label, k = rng.choice((("s", 2), ("t", 3)))
                group = (nodes[:k] + [leaf("b")] * k)[:k]
                nodes[:k] = [Tree(label, group)]
        rhs[name] = nodes[0]
    target = RankedAlphabet({"b": 0, "h": 1, "s": 2, "t": 3})
    return g, TreeHom(source, target, rhs)
