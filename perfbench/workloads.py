"""The three workloads: oracle-sweep, constructions and big-trees.

Each workload is a `setup(seed, scale)` that turns the seed into inputs
(grammar files and terms as text, plus their expected values) and a
`run_round(inputs, r)` that performs the workload's fixed operation list
once.  Rounds parse their grammars afresh (big-trees copies them for
every tree), so the memo a grammar object keeps never carries over from
one round to the next.

- oracle-sweep: many small trees, each evaluated once (the shape of
  acceptance criterion 9).  Stresses trees, semantics, decision and cli;
  bypasses the constructions.
- constructions: every transform stage, timed one call at a time, on
  seeded counter families and the fixtures; every output is written and
  read back.  Stresses transforms, grammar and syntax; evaluation only
  serves the small oracle, and most of its cost is indexing the large
  outputs on their first evaluation.
- big-trees: large accepted trees from closed-form families, each
  parsed, evaluated, derived and printed once.  Stresses per-node cost,
  sharing and memo growth in syntax, semantics and trees; calls the
  library only, never `cli.main`, which raises the recursion limit for
  the whole process.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
from pathlib import Path

from wtgc import cli
from wtgc.decision import (
    enumerate_support,
    finiteness_analysis,
    is_support_empty,
)
from wtgc.grammar import Wtgc, classify, eq_restriction
from wtgc.homomorphism import image_grammar, image_weight_oracle
from wtgc.pumping import ensure_nonbot_child, grammar_height, pump
from wtgc.semantics import derivation_weight, derivations, evaluate, \
    state_weight
from wtgc.semiring import support_hom
from wtgc.syntax import parse_grammar, parse_hom, parse_term, \
    serialize_grammar
from wtgc.transforms import (
    complement_support,
    constraint_determine,
    disambiguate,
    disjoint_union,
    eliminate_zero_derivations,
    hadamard,
    normalize,
    relabel,
    restrict_support,
    boolean_finals,
)
from wtgc.trees import Tree, enumerate_trees, term_str

import gen

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6")

SCALES = {
    "full": {
        # oracle-sweep
        "eq_grammars": 40, "eq_size": 8, "general_grammars": 24,
        "general_size": 7, "image_size": 8, "cli_oracle_size": 6,
        "cli_check_size": 6,
        # constructions
        "nat_k": (2, 3), "zmod": ((2, 4), (2, 6)),
        "er_grammars": 4, "check_size": 4, "er_check_size": 8,
        # big-trees
        "chain_trees": 33, "chain_min": 40, "chain_step": 4,
        "balanced_trees": 16, "balanced_depths": (6, 7, 8, 9),
        "separation_trees": 16, "separation_ns": (10, 11),
        "pumps": 4,
    },
    "smoke": {
        "eq_grammars": 4, "eq_size": 8, "general_grammars": 2,
        "general_size": 4, "image_size": 4, "cli_oracle_size": 3,
        "cli_check_size": 3,
        "nat_k": (), "zmod": ((2, 4),),
        "er_grammars": 1, "check_size": 4, "er_check_size": 8,
        "chain_trees": 2, "chain_min": 5, "chain_step": 3,
        "balanced_trees": 2, "balanced_depths": (2, 3),
        "separation_trees": 2, "separation_ns": (2, 3),
        "pumps": 1,
    },
}


class RoundTripError(Exception):
    """A written grammar did not read back as the same grammar."""


def read_fixtures() -> dict:
    texts = {name: (FIXTURES / f"{name}.wtg").read_text()
             for name in FIXTURE_NAMES}
    texts["fx3.hom"] = (FIXTURES / "fx3.hom").read_text()
    return texts


def fresh(g: Wtgc) -> Wtgc:
    """An equal grammar object with empty memo tables."""
    return Wtgc(g.nonterminals, g.alphabet, g.final, g.productions,
                g.semiring)


def roundtrip(r, g: Wtgc):
    try:
        text = r.tr.call("syntax.serialize_grammar", serialize_grammar, g)
        back = r.tr.call("syntax.parse_grammar", parse_grammar, text)
        if back != g:
            raise RoundTripError("read-back grammar differs")
    except Exception:
        r.roundtrip_failed += 1
        raise


def evaluate_all(r, g: Wtgc, trees) -> list:
    r.evaluated(trees)
    return [r.tr.call("semantics.evaluate", evaluate, g, t) for t in trees]


# -- oracle-sweep ------------------------------------------------------------


def oracle_sweep_setup(seed: int, scale: dict) -> dict:
    fx = read_fixtures()
    for name in FIXTURE_NAMES:
        parse_grammar(fx[name])
    rng = gen.rng_for(seed, "eq")
    eq = []
    big, *small = gen.ER_ALPHABETS[::-1]
    for i in range(scale["eq_grammars"]):
        # Every other grammar is over the five-symbol alphabet (11418
        # trees of size <= 8): with 40 grammars these are a sixth of the
        # operations, so the 90th latency percentile falls inside them
        # instead of on the edge between two kinds of operation.
        j = i // 2
        alphabet, variant = ((big, j) if i % 2 == 0 else
                             (small[j % len(small)], j // len(small)))
        text, bound = gen.eq_restricted(rng, alphabet, variant)
        trees, nodes = gen.count_trees(alphabet, scale["eq_size"])
        eq.append((text, bound, trees, nodes))
    rng = gen.rng_for(seed, "general")
    general = [gen.general(rng, i)
               for i in range(scale["general_grammars"])]
    general += [fx[name] for name in FIXTURE_NAMES]
    rng = gen.rng_for(seed, "cli")
    return {"fx": fx, "eq": eq, "general": general,
            "cli": cli_commands(rng, scale), "scale": scale}


def cli_commands(rng, scale) -> list:
    """(argv, exit code, expected stdout or None for a grammar file)."""
    def fx(name):
        return str(FIXTURES / name)

    size = str(scale["cli_check_size"])
    oracle_lines = [f"{name} {check}: PASS" for name in FIXTURE_NAMES
                    for check in ("derivation-sum", "normalize",
                                  "boolean-finals", "eliminate-zero")]
    oracle_lines.append("fx3 image-oracle: PASS")
    # image-eval sums over all 2^n preimages, so n stays fixed
    i, n, sep = rng.randint(1, 30), 8, rng.randint(2, 6)
    checked = [
        ["transform", "normalize", "--grammar", fx("fx1.wtg")],
        ["transform", "relabel", "--grammar", fx("fx4.wtg"), "--map", "f=g"],
        ["transform", "eliminate-zero", "--grammar", fx("fx6.wtg")],
        ["product", "--grammar", fx("fx2g.wtg"), "--grammar2",
         fx("fx2gp.wtg")],
        ["union", "--grammar", fx("fx2g.wtg"), "--grammar2",
         fx("fx2gp.wtg")],
        ["restrict", "--grammar", fx("fx2g.wtg"), "--grammar2",
         fx("fx2gp.wtg")],
        ["support", "--unambiguous", "--grammar", fx("fx1.wtg")],
        ["complement", "--grammar", fx("fx1.wtg")],
        ["disambiguate", "--grammar", fx("fx2g.wtg")],
        ["image", "--grammar", fx("fx3.wtg"), "--hom", fx("fx3.hom")],
    ]
    commands = [(["oracle", "--fixtures", str(FIXTURES), "--size",
                  str(scale["cli_oracle_size"])], 0,
                 "\n".join(oracle_lines) + "\n")]
    commands += [(argv + ["--oracle-size", size], 0, None)
                 for argv in checked]
    commands += [
        (["eval", "--grammar", fx("fx1.wtg"), "--tree", gen.fx1_tree(i)], 0,
         f"{2 * i + 1}\n"),
        (["derivs", "--grammar", fx("fx1.wtg"), "--tree",
          "sigma(gamma(gamma(alpha)),gamma(alpha))"], 0,
         "q': (p1 @ 1.1.1) (p2 @ 1.1) (p1 @ 2.1) (p2 @ 2) (p3 @ e)\n"),
        (["image-eval", "--grammar", fx("fx3.wtg"), "--hom", fx("fx3.hom"),
          "--tree", gen.fx1_tree(n)], 0, f"{3 ** n}\n"),
        (["decide", "empty", "--grammar", fx("fx4.wtg")], 1, "nonempty\n"),
        (["decide", "finite", "--grammar", fx("fx4.wtg")], 1, "infinite\n"),
        (["separation", "--n", str(sep)], 0,
         f"{gen.separation_tree(sep, False)}\n"
         f"{gen.separation_tree(sep, True)}\n"),
    ]
    return commands


def oracle_sweep_round(inp: dict, r):
    scale = inp["scale"]
    for text, bound, trees, nodes in inp["eq"]:
        state = {}
        r.op("enumerate_support", sweep_support, r, text, scale["eq_size"],
             trees, nodes, state)
        r.op("decide", sweep_decide, r, state, bound)
    for text in inp["general"]:
        r.op("derivation_sum", derivation_sum, r, text,
             scale["general_size"])
    r.op("image_oracle", image_oracle, r, inp["fx"], scale["image_size"])
    for argv, code, stdout in inp["cli"]:
        r.op("cli", run_cli, r, argv, code, stdout)


def sweep_support(r, text, size, trees, nodes, state):
    g = r.tr.call("syntax.parse_grammar", parse_grammar, text)
    state["g"] = g
    state["support"] = r.tr.call("decision.enumerate_support",
                                 enumerate_support, g, size)
    r.trees += trees
    r.nodes += nodes


def sweep_decide(r, state, bound):
    g, support = state["g"], state["support"]
    empty = r.tr.call("decision.is_support_empty", is_support_empty, g)
    finite, _ = r.tr.call("decision.finiteness_analysis",
                          finiteness_analysis, g)
    r.expect("support emptiness", empty, not support)
    r.expect("support finiteness", finite,
             not any(t.height > bound for t in support))


def derivation_sum(r, text, size):
    """Criterion 2: summed derivation weights equal the weight map, and
    evaluation is the final-weighted sum of the weight map."""
    g = r.tr.call("syntax.parse_grammar", parse_grammar, text)
    s = g.semiring
    trees = r.tr.items("trees.enumerate_trees", enumerate_trees,
                       g.alphabet, size)
    r.evaluated(trees)
    for t in trees:
        total = s.zero
        for q in sorted(g.nonterminals):
            ds = r.tr.items("semantics.derivations", derivations, g, t, q)
            weight = r.tr.call("semantics.state_weight", state_weight,
                               g, q, t)
            r.expect(lambda: f"derivation sum of {term_str(t)} at {q}",
                     s.sum(derivation_weight(g, d) for d in ds), weight)
            total = s.add(total, s.mul(g.final[q], weight))
        r.expect(lambda: f"weight of {term_str(t)}",
                 r.tr.call("semantics.evaluate", evaluate, g, t), total)


def image_oracle(r, fx, size):
    """The fx3 image grammar against the brute-force preimage sum, and
    against the closed form 3^n on sigma(gamma^(n+1), gamma^n)."""
    g = r.tr.call("syntax.parse_grammar", parse_grammar, fx["fx3"])
    h = parse_hom(fx["fx3.hom"], g.alphabet)
    img = r.construct("homomorphism.image_grammar", image_grammar,
                      r.construct("transforms.normalize", normalize, g), h)
    trees = r.tr.items("trees.enumerate_trees", enumerate_trees,
                       img.alphabet, size)
    got = evaluate_all(r, img, trees)
    for t, w in zip(trees, got):
        r.expect(lambda: f"image weight of {term_str(t)}", w,
                 r.tr.call("homomorphism.image_weight_oracle",
                           image_weight_oracle, h, g, t))
    for n in range(size):
        t = parse_term(gen.fx1_tree(n), img.alphabet)
        r.expect(f"image closed form at {n}", evaluate_all(r, img, [t]),
                 [3 ** n])


def run_cli(r, argv, code, stdout):
    """One in-process `wtgc` command.  `cli.main` raises the recursion
    limit for the whole process; the limit is put back afterwards so the
    rest of the workload sees the library as API users get it."""
    limit = sys.getrecursionlimit()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = r.tr.call("cli.main", cli.main, argv)
    finally:
        sys.setrecursionlimit(limit)
    what = "wtgc " + " ".join(argv[:2])
    r.expect(f"{what} exit code ({err.getvalue().strip()})", got, code)
    if stdout is None:
        r.expect(f"{what} writes a grammar",
                 out.getvalue().startswith("semiring "), True)
    else:
        r.expect(f"{what} output", out.getvalue(), stdout)


# -- constructions -----------------------------------------------------------


def constructions_setup(seed: int, scale: dict) -> dict:
    fx = read_fixtures()
    for name in FIXTURE_NAMES:
        parse_grammar(fx[name])
    rng = gen.rng_for(seed, "nat")
    nat = [(gen.counter(rng, k, "nat", splits=1, nested=1),
            gen.counter(rng, k, "nat", splits=0, nested=0))
           for k in scale["nat_k"]]
    rng = gen.rng_for(seed, "zmod")
    zmod = [(gen.counter(rng, k, f"zmod {m}", splits=1, nested=1),
             gen.counter(rng, k, f"zmod {m}", splits=0, nested=0))
            for k, m in scale["zmod"]]
    rng = gen.rng_for(seed, "er")
    alphabet = {"alpha": 0, "beta": 0, "gamma": 1, "delta": 1}
    er = [gen.eq_restricted(rng, alphabet, i)
          for i in range(scale["er_grammars"])]
    return {"fx": fx, "nat": nat, "zmod": zmod, "er": er, "scale": scale}


class Oracle:
    """Small enumeration oracle: trees of bounded size over one alphabet
    and the weights the input grammars give them, computed once a round."""

    def __init__(self, r, size):
        self.r = r
        self.size = size
        self.trees = {}
        self.weights = {}

    def trees_for(self, alphabet):
        if alphabet not in self.trees:
            self.trees[alphabet] = self.r.tr.items(
                "trees.enumerate_trees", enumerate_trees, alphabet,
                self.size)
        return self.trees[alphabet]

    def weights_of(self, g: Wtgc) -> list:
        if id(g) not in self.weights:
            self.weights[id(g)] = (g, evaluate_all(
                self.r, g, self.trees_for(g.alphabet)))
        return self.weights[id(g)][1]

    def check(self, what, out: Wtgc, want):
        trees = self.trees_for(out.alphabet)
        got = evaluate_all(self.r, out, trees)
        for t, a, b in zip(trees, got, want):
            self.r.expect(lambda: f"{what} on {term_str(t)}", a, b)


def stage(r, state, key, name, fn, args, want):
    """One construction op: build, then compare with the oracle."""
    out = r.construct(f"transforms.{name}", fn, *(state[a] for a in args))
    state[key] = out
    state["oracle"].check(name, out, want(state))


def constructions_round(inp: dict, r):
    scale = inp["scale"]
    oracle = Oracle(r, scale["check_size"])
    for i, (text, partner) in enumerate(inp["nat"]):
        state = {"oracle": oracle}
        r.op("load", load_counter, r, state, text, partner)
        # restrict_support pays a Hadamard product with the support
        # automaton: once a round on the smallest counter stays well
        # below the blow-up of larger ones
        pipeline(r, state, support=True, restrict=i == 0)
    for text, partner in inp["zmod"]:
        state = {"oracle": oracle}
        r.op("load", load_counter, r, state, text, partner)
        pipeline(r, state, support=False, restrict=False)
    er_oracle = Oracle(r, scale["er_check_size"])
    for text, bound in inp["er"]:
        state = {"oracle": er_oracle}
        r.op("eq_restricted", load_eq_restricted, r, state, text, bound)
        relabel_stage(r, state, {"beta": "alpha", "delta": "gamma"})
    fixture_constructions(r, inp["fx"], oracle, scale)


def load_counter(r, state, text, partner):
    g = r.tr.call("syntax.parse_grammar", parse_grammar, text)
    cls = r.tr.call("grammar.classify", classify, g)
    r.expect("counter classification",
             (cls.normalized, cls.positive, cls.constraint_determined),
             (False, False, False))
    r.expect("counter eq-restriction",
             r.tr.call("grammar.eq_restriction", eq_restriction, g), None)
    state["g"] = g
    state["partner"] = r.tr.call("syntax.parse_grammar", parse_grammar,
                                 partner)


def pipeline(r, state, support: bool, restrict: bool):
    """Drive the support automaton one stage at a time, then the binary
    constructions; every output is written and read back."""
    oracle = state["oracle"]

    def same(st):
        return oracle.weights_of(st["g"])

    def partner(st):
        return oracle.weights_of(st["partner"])

    def semiring():
        return state["g"].semiring

    def indicator(flip):
        def want(st):
            zero = semiring().zero
            return [int((w != zero) != flip) for w in same(st)]
        return want

    def pointwise(op):
        def want(st):
            return [op(a, b) for a, b in zip(same(st), partner(st))]
        return want

    def restricted(st):
        zero = semiring().zero
        return [a if b != zero else zero
                for a, b in zip(same(st), partner(st))]

    stages = [
        ("n", "normalize", normalize, ("g",), same),
        ("b", "boolean_finals", boolean_finals, ("n",), same),
        ("e", "eliminate_zero_derivations", eliminate_zero_derivations,
         ("b",), same),
    ]
    if support:
        stages.append(("d", "disambiguate",
                       lambda e: disambiguate(e, support_hom(e.semiring)),
                       ("e",), indicator(False)))
    stages += [
        ("cd", "constraint_determine", constraint_determine, ("n",), same),
        ("u", "disjoint_union", disjoint_union, ("g", "partner"),
         pointwise(lambda a, b: semiring().add(a, b))),
        ("h", "hadamard", hadamard, ("g", "partner"),
         pointwise(lambda a, b: semiring().mul(a, b))),
    ]
    if support:
        stages.append(("c", "complement_support", complement_support,
                       ("g",), indicator(True)))
    if restrict:
        stages.append(("r", "restrict_support", restrict_support,
                       ("g", "partner"), restricted))
    for key, name, fn, args, want in stages:
        r.op(name, stage, r, state, key, name, fn, args, want)
        r.op(f"{name}.roundtrip", lambda k=key: roundtrip(r, state[k]))


def load_eq_restricted(r, state, text, bound):
    g = r.tr.call("syntax.parse_grammar", parse_grammar, text)
    er = r.tr.call("grammar.eq_restriction", eq_restriction, g)
    r.expect("sink of a generated eq-restricted grammar",
             er and er.sink, "bot")
    oracle = state["oracle"]
    weights = oracle.weights_of(g)
    support = [t for t, w in zip(oracle.trees_for(g.alphabet), weights)
               if w != 0]
    decide(r, g, not support, not any(t.height > bound for t in support))
    state["g"] = g


def decide(r, g, empty, finite):
    r.expect("emptiness", r.tr.call("decision.is_support_empty",
                                    is_support_empty, g), empty)
    r.expect("finiteness", r.tr.call("decision.finiteness_analysis",
                                     finiteness_analysis, g)[0], finite)


def relabel_preimages(u: Tree, sources: dict) -> list:
    options = [relabel_preimages(c, sources) for c in u.children]
    out = []
    for name in sources.get(u.label, ()):
        combos = [()]
        for pool in options:
            combos = [c + (t,) for c in combos for t in pool]
        out += [Tree(name, combo) for combo in combos]
    return out


def relabel_stage(r, state, merges):
    """Relabel with `merges` (identity elsewhere) and compare with the
    summed weights of all preimages."""
    def run():
        g = state["g"]
        mapping = {name: merges.get(name, name)
                   for name in g.alphabet.names()}
        out = r.construct("transforms.relabel", relabel, g, mapping)
        sources = {}
        for name, image in mapping.items():
            sources.setdefault(image, []).append(name)
        trees = state["oracle"].trees_for(out.alphabet)
        s = g.semiring
        for u, w in zip(trees, evaluate_all(r, out, trees)):
            pre = relabel_preimages(u, sources)
            r.expect(lambda: f"relabel on {term_str(u)}", w,
                     s.sum(evaluate_all(r, g, pre)))
        state["relabelled"] = out

    r.op("relabel", run)
    r.op("relabel.roundtrip", lambda: roundtrip(r, state["relabelled"]))


def fixture_constructions(r, fx, oracle, scale):
    """The fixtures through the stages that accept them: fx1 (nested lhs)
    through the support pipeline, fx2g x fx2gp (criterion 3), the fx3
    image, relabeling and the decisions on fx4, zero divisors in fx6."""
    state = {"oracle": oracle}

    def load():
        for name in ("fx1", "fx2g", "fx2gp", "fx4", "fx6"):
            state[name] = r.tr.call("syntax.parse_grammar", parse_grammar,
                                    fx[name])
        state["g"] = state["fx1"]
        state["partner"] = state["fx2g"]

    r.op("load", load)
    pipeline(r, state, support=True, restrict=False)

    pair = {"oracle": oracle}

    def load_pair():
        pair["g"] = state["fx2g"]
        pair["partner"] = state["fx2gp"]

    r.op("load", load_pair)
    pipeline(r, pair, support=True, restrict=True)

    zd = {"oracle": oracle}

    def load_fx6():
        zd["g"] = state["fx6"]
        zd["partner"] = state["fx6"]

    r.op("load", load_fx6)
    pipeline(r, zd, support=False, restrict=False)

    er_oracle = Oracle(r, scale["er_check_size"])
    fx4 = {"oracle": er_oracle}

    def load_fx4():
        fx4["g"] = state["fx4"]
        decide(r, fx4["g"], False, False)

    r.op("decide", load_fx4)
    relabel_stage(r, fx4, {"f": "g"})

    def image():
        g = r.tr.call("syntax.parse_grammar", parse_grammar, fx["fx3"])
        h = parse_hom(fx["fx3.hom"], g.alphabet)
        img = r.construct("homomorphism.image_grammar", image_grammar,
                          r.construct("transforms.normalize", normalize, g),
                          h)
        trees = oracle.trees_for(img.alphabet)
        for t, w in zip(trees, evaluate_all(r, img, trees)):
            r.expect(lambda: f"image weight of {term_str(t)}", w,
                     r.tr.call("homomorphism.image_weight_oracle",
                               image_weight_oracle, h, g, t))
        state["image"] = img

    r.op("image", image)
    r.op("image.roundtrip", lambda: roundtrip(r, state["image"]))


# -- big-trees ---------------------------------------------------------------


def big_trees_setup(seed: int, scale: dict) -> dict:
    texts = read_fixtures()
    fx = {name: parse_grammar(texts[name]) for name in FIXTURE_NAMES}
    h = parse_hom(texts["fx3.hom"], fx["fx3"].alphabet)
    grammars = {
        "fx1": fx["fx1"],
        "image": image_grammar(normalize(fx["fx3"]), h),
        "product": hadamard(fx["fx2g"], fx["fx2gp"]),
        "fx5": fx["fx5"],
        "fx4": eliminate_zero_derivations(ensure_nonbot_child(fx["fx4"])),
    }
    rng = gen.rng_for(seed, "trees")
    chains, balanced, separation = [], [], []
    for j in range(scale["chain_trees"]):
        i = scale["chain_min"] + scale["chain_step"] * j + rng.randrange(
            scale["chain_step"])
        chains.append(("fx1", gen.fx1_tree(i), 2 * i + 1, 2 * i + 3))
        chains.append(("image", gen.fx1_tree(i), 3 ** i, 2 * i + 3))
    depths = scale["balanced_depths"]
    for j in range(scale["balanced_trees"]):
        depth, c = depths[j % len(depths)], 1 + j // len(depths) % 4
        balanced.append(("product", gen.balanced_tree(depth, c),
                         gen.balanced_weight(depth, c),
                         gen.balanced_size(depth, c)))
    ns = scale["separation_ns"]
    for j in range(scale["separation_trees"]):
        n = ns[j % len(ns)]
        separation.append(("fx5", gen.separation_tree(n, rng.random() < 0.5),
                           1, 2 ** (n + 1) - 1))
    # a fixed interleaving of the families, the same for every seed
    trees = [t for group in itertools.zip_longest(chains, balanced,
                                                  separation)
             for t in group if t is not None]
    height = grammar_height(grammars["fx4"]) + 1
    pumps = []
    for j in range(scale["pumps"]):
        base = "a"
        for _ in range(height + j % 2):
            base = f"g({base},{base})"
        pumps.append((base, 3 - j % 2))
    targets = {name: g.final_support()[0] for name, g in grammars.items()}
    return {"grammars": grammars, "targets": targets, "trees": trees,
            "pumps": pumps}


def big_trees_round(inp: dict, r):
    grammars = inp["grammars"]
    for name in ("image", "product", "fx4"):
        # constructed in set-up; their size sets the per-node cost here
        r.out_p += len(grammars[name].productions)
        r.out_q += len(grammars[name].nonterminals)
    targets = inp["targets"]
    for family, text, weight, size in inp["trees"]:
        r.op(family, big_tree, r, grammars[family], targets[family], text,
             weight, size)
    for base, count in inp["pumps"]:
        r.op("pump", pump_op, r, grammars["fx4"], targets["fx4"], base,
             count)


def big_tree(r, g, q, text, weight, size):
    """One-shot use of a grammar on one tree: a fresh grammar object, so
    the memo holds this tree's subtrees only."""
    g = fresh(g)
    t = r.tr.call("syntax.parse_term", parse_term, text, g.alphabet)
    r.trees += 1
    r.nodes += size
    r.expect(f"weight of a {size}-node tree",
             r.tr.call("semantics.evaluate", evaluate, g, t), weight)
    r.expect(f"derivations of a {size}-node tree",
             len(r.tr.items("semantics.derivations", derivations, g, t, q)),
             1)
    r.expect(f"printing a {size}-node tree",
             r.tr.call("trees.term_str", term_str, t) == text, True)


def pump_op(r, g, q, base, count):
    g = fresh(g)
    t = r.tr.call("syntax.parse_term", parse_term, base, g.alphabet)
    (d,) = r.tr.items("semantics.derivations", derivations, g, t, q)
    grown = r.tr.call("pumping.pump", pump, g, t, d, count)
    heights = [t.height] + [tree.height for tree, _ in grown]
    r.expect("pumped heights grow", all(a < b for a, b in
                                        zip(heights, heights[1:])), True)
    r.expect("pumped trees", len(grown), count)
    for tree, _ in grown:
        text = r.tr.call("trees.term_str", term_str, tree)
        big_tree(r, g, q, text, 1, tree.size)


def max_depth_ok(grammar_text: str) -> tuple[int, list]:
    """Largest d in 64, 128, ..., 131072 for which gamma^d(alpha) goes
    through parse_term, evaluate (fx2g weighs it 2d) and term_str without
    an exception; each depth gets a fresh grammar, so no memo is shared."""
    ok, wrong = 0, []
    depth = 64
    while depth <= 131072:
        g = parse_grammar(grammar_text)
        text = gen.chain(depth)
        try:
            t = parse_term(text, g.alphabet)
            weight = evaluate(g, t)
            printed = term_str(t)
        except Exception:  # noqa: BLE001 - the ladder stops at any failure
            break
        if weight != 2 * depth or printed != text:
            wrong.append(f"gamma^{depth}(alpha) misread or misweighed")
            break
        ok = depth
        depth *= 2
    return ok, wrong


WORKLOADS = {
    "oracle-sweep": (oracle_sweep_setup, oracle_sweep_round),
    "constructions": (constructions_setup, constructions_round),
    "big-trees": (big_trees_setup, big_trees_round),
}
