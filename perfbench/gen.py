"""Seeded inputs for the benchmark and their closed-form expected values.

Nothing here imports `wtgc`: inputs are produced as the text a user would
feed the library (grammar files and terms), and the expected values here
are closed forms computed from how each input was built, so they stay
independent of the code under test.

The seed draws weights, small size jitter and the random general
grammars; the structure of the other families is fixed by their index,
so two seeds give different inputs but nearly the same amount of work.
"""

from __future__ import annotations

import itertools
import random

POSITIONS = ("e", "1", "2", "1.1", "1.2", "2.1", "2.2", "1.1.1")

# Alphabets of the eq-restricted sweep; their size-8 enumerations hold
# 8, 216, 1776, 255 and 11418 trees.
ER_ALPHABETS = (
    {"alpha": 0, "gamma": 1},
    {"alpha": 0, "gamma": 1, "sigma": 2},
    {"alpha": 0, "beta": 0, "gamma": 1, "sigma": 2},
    {"alpha": 0, "gamma": 1, "delta": 1},
    {"alpha": 0, "beta": 0, "gamma": 1, "delta": 1, "sigma": 2},
)
AGS = {"alpha": 0, "gamma": 1, "sigma": 2}


def rng_for(seed: int, tag: str) -> random.Random:
    """One generator per input family, so families do not shift each
    other when one of them changes size."""
    return random.Random(f"{seed}/{tag}")


def grammar_text(semiring: str, alphabet: dict, nonterminals, finals: dict,
                 productions) -> str:
    lines = [f"semiring {semiring}",
             "alphabet " + " ".join(f"{n}:{r}" for n, r in alphabet.items()),
             "nonterminals " + " ".join(nonterminals)]
    lines += [f"final {q} = {w}" for q, w in finals.items()]
    lines += [f"prod {p}" for p in productions]
    return "\n".join(lines) + "\n"


# -- trees as text -----------------------------------------------------------


def chain(n: int, base: str = "alpha", symbol: str = "gamma") -> str:
    return f"{symbol}(" * n + base + ")" * n


def fx1_tree(i: int) -> str:
    """sigma(gamma^(i+1)(alpha), gamma^i(alpha)); fx1 weighs it 2i+1 and
    the fx3 image weighs it 3^i."""
    return f"sigma({chain(i + 1)},{chain(i)})"


def balanced_tree(depth: int, leaf_chain: int) -> str:
    """A sigma tree of the given depth whose sigma children are equal,
    over gamma^c(alpha) leaves: inside the support of both fx2g and
    fx2gp."""
    text = chain(leaf_chain)
    for _ in range(depth):
        text = f"sigma({text},{text})"
    return text


def balanced_weight(depth: int, leaf_chain: int) -> int:
    """Criterion-3 closed form of fx2g x fx2gp: 3 #gamma + #sigma."""
    return 3 * (2 ** depth) * leaf_chain + 2 ** depth - 1


def balanced_size(depth: int, leaf_chain: int) -> int:
    return (2 ** depth) * (leaf_chain + 1) + 2 ** depth - 1


def separation_tree(n: int, primed: bool) -> str:
    """t_n or t'_n of the separation family; fx5 weighs both 1."""
    t = tp = "a"
    for level in range(1, n + 1):
        if level == 1:
            t, tp = f"g({t},{t})", f"g({tp},{t})"
        else:
            t, tp = f"f({t},{t})", f"fbar({tp},{t})"
    return tp if primed else t


def count_trees(alphabet: dict, max_size: int) -> tuple[int, int]:
    """(number of trees, total nodes) over all trees of size <= max_size."""
    ranks = list(alphabet.values())
    top = max(ranks, default=0)
    count = [0] * (max_size + 1)
    # ways[r][n]: ordered r-tuples of trees with n nodes in total
    ways = [[1] + [0] * max_size]
    ways += [[0] * (max_size + 1) for _ in range(top)]
    for n in range(1, max_size + 1):
        count[n] = sum(ways[r][n - 1] for r in ranks)
        for r in range(1, top + 1):
            ways[r][n] = sum(count[k] * ways[r - 1][n - k]
                             for k in range(1, n + 1))
    return sum(count), sum(n * c for n, c in enumerate(count))


# -- grammars as text --------------------------------------------------------


ER_KINDS = ("none", "leaf", "unary", "sigma")


def eq_restricted(rng: random.Random, alphabet: dict,
                  variant: int) -> tuple[str, int]:
    """An eq-restricted positive classic grammar over the naturals and its
    pumping bound (|Q| + 1) * height(P).

    `variant` fixes the structure: how q2 is derived (not at all, from a
    leaf, by unary steps, or by a sigma over q1), whether q1 loops,
    whether q1 is final too, and which symbols each production uses.  The
    seed draws the weights only, so the cost of evaluating the grammar
    does not depend on the seed.  Loops are unary only, and sigma
    productions only sit on a non-looping q1, so a tall witness of an
    infinite support has at most 8 nodes: emptiness and finiteness are
    both visible to a size-8 enumeration.
    """
    kind = ER_KINDS[variant % 4]
    loop = variant // 4 % 2 == 1
    nullary = sorted(n for n, r in alphabet.items() if r == 0)
    unary = sorted(n for n, r in alphabet.items() if r == 1)

    def leaf(k):
        return nullary[(variant + k) % len(nullary)]

    def step(k):
        return unary[(variant // 2 + k) % len(unary)]

    def w():
        return rng.randint(1, 3)

    prods = [f"{n}({','.join(['bot'] * r)}) -> bot @ 1" if r else
             f"{n} -> bot @ 1" for n, r in alphabet.items()]
    prods.append(f"{leaf(0)} -> q1 @ {w()}")
    if loop:
        prods.append(f"{step(0)}(q1) -> q1 @ {w()}")
    if kind == "none":
        prods.append(f"{step(1)}(q2) -> q2 @ {w()}")
    elif kind == "leaf":
        prods.append(f"{leaf(1)} -> q2 @ {w()}")
    elif kind == "unary" or "sigma" not in alphabet or loop:
        prods.append(f"{step(1)}(q1) -> q2 @ {w()}")
        prods.append(f"{step(0)}(q2) -> q2 @ {w()}")
    elif variant // 8 % 2:
        prods.append(f"sigma(q1,bot) -> q2 [eq 1=2] @ {w()}")
    else:
        prods.append(f"sigma(q1,q1) -> q2 @ {w()}")
    finals = {"q2": w()}
    if (variant + variant // 4) % 2:
        finals["q1"] = w()
    bound = 4 if any(r > 0 for r in alphabet.values()) else 0
    text = grammar_text("nat", alphabet, ("q1", "q2", "bot"), finals, prods)
    return text, bound


def general(rng: random.Random, variant: int) -> str:
    """A small random grammar with arbitrary, often non-classic, equality
    and inequality constraints over {alpha, gamma, sigma}.  `variant`
    fixes the semiring and the numbers of nonterminals and productions."""
    semiring = ("nat", "arctic", "zmod 4")[variant % 3]
    qs = ("q1", "q2")[:1 + variant // 3 % 2]

    def lhs(depth):
        name = rng.choice(sorted(AGS))
        children = []
        for _ in range(AGS[name]):
            if depth > 0 and rng.random() < 0.4:
                children.append(lhs(depth - 1))
            else:
                children.append(rng.choice(qs))
        return f"{name}({','.join(children)})" if children else name

    def block(tag, limit):
        pairs = [f"{rng.choice(POSITIONS)}={rng.choice(POSITIONS)}"
                 for _ in range(rng.randint(0, limit))]
        return f" [{tag} {', '.join(pairs)}]" if pairs else ""

    prods = []
    for _ in range(2 + variant // 6 % 4):
        weight = rng.randint(1, 3)
        if semiring == "arctic" and rng.random() < 0.2:
            weight = 0
        prods.append(f"{lhs(1)} -> {rng.choice(qs)}{block('eq', 2)}"
                     f"{block('ne', 1)} @ {weight}")
    prods.append(f"alpha -> {qs[0]} @ 1")
    finals = {rng.choice(qs): rng.randint(1, 2)}
    return grammar_text(semiring, AGS, qs, finals, prods)


def counter(rng: random.Random, k: int, semiring: str, splits: int,
            nested: int) -> str:
    """An ambiguous k-state counter over {alpha, gamma, sigma}.

    gamma steps c_i to c_(i+1) and may also stay at the top state; the
    first `splits` sigma shapes carry both an `eq 1=2` and an `ne 1=2`
    variant, which forces constraint determination, and `nested`
    productions have a gamma under sigma, which normalization has to
    abbreviate.

    The shapes are fixed, so output sizes depend on k alone.  Over the
    naturals the seed draws the weights; over `zmod m` the weights cycle
    through every nonzero residue, zero divisors included, because there
    the weights decide which products vanish and so the output sizes.
    """
    if semiring.startswith("zmod"):
        m = int(semiring.split()[1])
        cycle = itertools.count()

        def w():
            return next(cycle) % (m - 1) + 1
    else:
        def w():
            return rng.randint(1, 3)

    cs = [f"c{i}" for i in range(k)]
    top = cs[-1]
    prods = [f"alpha -> c0 @ {w()}", f"gamma({top}) -> {top} @ {w()}"]
    prods += [f"gamma({cs[i]}) -> {cs[(i + 1) % k]} @ {w()}"
              for i in range(k)]
    shapes = [(i, (i + 1) % k) for i in range(k)] + [(0, 0)]
    for n, (i, j) in enumerate(shapes):
        head = f"sigma({cs[i]},{cs[j]}) -> {cs[(i + j + 1) % k]}"
        if n < splits:
            prods.append(f"{head} [eq 1=2] @ {w()}")
            prods.append(f"{head} [ne 1=2] @ {w()}")
        else:
            prods.append(f"{head} @ {w()}")
    for n in range(nested):
        prods.append(f"sigma(gamma({cs[n % k]}),{top}) -> {top} @ {w()}")
    return grammar_text(semiring, AGS, cs, {top: w()}, prods)
