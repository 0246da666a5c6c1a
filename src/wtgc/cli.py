"""Command-line front end.

One command per run: evaluation, derivation dumps, the grammar
transforms, image construction, pumping, the support decisions, and a
fixture-driven oracle battery.  Weights always print in semiring-literal
syntax, and output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import decision, pumping, semantics, transforms
from .errors import WtgcError
from .grammar import Wtgc
from .homomorphism import (
    TreeHom,
    image_grammar,
    image_weight_oracle,
    relabeling_hom,
)
from .semiring import identity_hom, support_hom
from .syntax import parse_grammar, parse_hom, parse_term, serialize_grammar
from .trees import enumerate_trees, pos_str, term_str

ORACLE_SIZE_CAP = 12


def _load_grammar(path: str) -> Wtgc:
    return parse_grammar(Path(path).read_text())


def _load_hom(path: str, source=None) -> TreeHom:
    return parse_hom(Path(path).read_text(), source)


def _tree_for(g: Wtgc, text: str):
    return parse_term(text, g.alphabet)


def _emit_weight(g: Wtgc, weight, fmt: str):
    literal = g.semiring.format(weight)
    if fmt == "json":
        print(json.dumps({"weight": literal}))
    else:
        print(literal)


def _write_grammar(g: Wtgc, out: str | None):
    text = serialize_grammar(g)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _oracle_size(value: int) -> int:
    if value > ORACLE_SIZE_CAP:
        raise WtgcError(
            f"oracle size {value} exceeds the cap {ORACLE_SIZE_CAP}")
    return value


def _oracle(alphabet, size: int, expected, actual) -> None:
    """Compare two functions of a tree on every tree of at most `size`
    nodes; raises on the first tree where they differ."""
    for t in enumerate_trees(alphabet, _oracle_size(size)):
        a, b = expected(t), actual(t)
        if a != b:
            raise WtgcError(f"oracle mismatch on {term_str(t)}: {a} != {b}")


def _relabel_map(entries: list[str], map_file: str | None,
                 g: Wtgc) -> dict:
    mapping = {}
    if map_file is not None:
        for raw in Path(map_file).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                entries = [line] + list(entries)
    for entry in entries:
        if "=" not in entry:
            raise WtgcError(f"bad relabel entry {entry!r} (want old=new)")
        old, new = entry.split("=", 1)
        mapping[old.strip()] = new.strip()
    for name in g.alphabet.names():
        mapping.setdefault(name, name)
    return mapping


def cmd_eval(args):
    g = _load_grammar(args.grammar)
    t = _tree_for(g, args.tree)
    _emit_weight(g, semantics.evaluate(g, t), args.format)
    return 0


def cmd_derivs(args):
    g = _load_grammar(args.grammar)
    t = _tree_for(g, args.tree)
    targets = [args.target] if args.target else list(g.final_support())
    for q in targets:
        for d in semantics.derivations(g, t, q):
            steps = " ".join(f"({g.prod_id(p)} @ {pos_str(w)})"
                             for p, w in d.steps)
            print(f"{q}: {steps}")
    return 0


_TRANSFORMS = {
    "normalize": transforms.normalize,
    "boolean-finals": transforms.boolean_finals,
    "eliminate-zero": transforms.eliminate_zero_derivations,
    "constraint-determine": transforms.constraint_determine,
}


def cmd_transform(args):
    g = _load_grammar(args.grammar)
    if args.name == "relabel":
        mapping = _relabel_map(args.map or [], args.map_file, g)
        out = transforms.relabel(g, mapping)
        h = relabeling_hom(g.alphabet, mapping, out.alphabet)
        return _finish(args, out, partial(image_weight_oracle, h, g))
    if args.name not in _TRANSFORMS:
        raise WtgcError(f"unknown transform {args.name!r}")
    out = _TRANSFORMS[args.name](g)
    return _finish(args, out, partial(semantics.evaluate, g))


def _finish(args, out: Wtgc, expected) -> int:
    """Check `out` against the expected weights if asked, then write it."""
    if args.oracle_size:
        _oracle(out.alphabet, args.oracle_size, expected,
                partial(semantics.evaluate, out))
    _write_grammar(out, args.out)
    return 0


def cmd_union(args):
    g = _load_grammar(args.grammar)
    g2 = _load_grammar(args.grammar2)
    out = transforms.disjoint_union(g, g2)
    return _finish(args, out, lambda t: g.semiring.add(
        semantics.evaluate(g, t), semantics.evaluate(g2, t)))


def cmd_product(args):
    g = _load_grammar(args.grammar)
    g2 = _load_grammar(args.grammar2)
    out = transforms.hadamard(g, g2)
    return _finish(args, out, lambda t: g.semiring.mul(
        semantics.evaluate(g, t), semantics.evaluate(g2, t)))


def cmd_support(args):
    g = _load_grammar(args.grammar)
    out = (transforms.support_automaton(g) if args.unambiguous
           else transforms.support_grammar(g))
    return _finish(args, out, lambda t: int(
        semantics.evaluate(g, t) != g.semiring.zero))


def cmd_complement(args):
    g = _load_grammar(args.grammar)
    out = transforms.complement_support(g)
    return _finish(args, out, lambda t: int(
        semantics.evaluate(g, t) == g.semiring.zero))


def cmd_restrict(args):
    g = _load_grammar(args.grammar)
    g2 = _load_grammar(args.grammar2)
    out = transforms.restrict_support(g, g2)
    return _finish(args, out, lambda t: (
        semantics.evaluate(g, t)
        if semantics.evaluate(g2, t) != g2.semiring.zero
        else g.semiring.zero))


def cmd_disambiguate(args):
    g = _load_grammar(args.grammar)
    hom = (identity_hom(g.semiring) if args.hom == "identity"
           else support_hom(g.semiring))
    out = transforms.disambiguate(g, hom)
    if args.oracle_size:
        witness = semantics.check_unambiguous_upto(
            out, _oracle_size(args.oracle_size))
        if witness is not None:
            raise WtgcError(f"ambiguous on {term_str(witness)}")
    return _finish(args, out, lambda t: hom(semantics.evaluate(g, t)))


def cmd_image(args):
    g = _load_grammar(args.grammar)
    h = _load_hom(args.hom, g.alphabet)
    out = image_grammar(transforms.normalize(g), h)
    return _finish(args, out, partial(image_weight_oracle, h, g))


def cmd_image_eval(args):
    g = _load_grammar(args.grammar)
    h = _load_hom(args.hom, g.alphabet)
    u = parse_term(args.tree, h.target)
    _emit_weight(g, image_weight_oracle(h, g, u), args.format)
    return 0


def cmd_pump(args):
    g = _load_grammar(args.grammar)
    prepared = transforms.eliminate_zero_derivations(
        pumping.ensure_nonbot_child(g))
    t = _tree_for(prepared, args.tree)
    base = pumping.base_derivation(prepared, t)
    for pumped_tree, _ in pumping.pump(prepared, t, base, args.count):
        print(term_str(pumped_tree))
    return 0


def cmd_separation(args):
    t, tp = pumping.separation_family(args.n)
    print(term_str(t))
    print(term_str(tp))
    return 0


def cmd_decide(args):
    g = _load_grammar(args.grammar)
    if args.property == "empty":
        verdict = decision.is_support_empty(g)
        print("empty" if verdict else "nonempty")
        if args.explain:
            table = decision.productivity(g)
            print(f"productive: {' '.join(sorted(table.productive)) or '-'}")
            print(f"reachable: {' '.join(sorted(table.reachable)) or '-'}")
    else:
        verdict, reason = decision.finiteness_analysis(g)
        print("finite" if verdict else "infinite")
        if args.explain:
            print(reason)
    return 0 if verdict else 1


def cmd_oracle(args):
    size = _oracle_size(args.size)
    fixtures = Path(args.fixtures)
    failures = 0
    for name in ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6"):
        path = fixtures / f"{name}.wtg"
        if not path.exists():
            print(f"{name}: MISSING")
            failures += 1
            continue
        g = _load_grammar(str(path))
        states = sorted(g.nonterminals)
        failures += not _passes(
            f"{name} derivation-sum", _oracle, g.alphabet, size,
            lambda t: tuple(g.semiring.sum(
                semantics.derivation_weight(g, d)
                for d in semantics.derivations(g, t, q)) for q in states),
            lambda t: tuple(semantics.state_weight(g, q, t)
                            for q in states))
        for label in ("normalize", "boolean-finals", "eliminate-zero"):
            failures += not _passes(
                f"{name} {label}", lambda: _oracle(
                    g.alphabet, size, partial(semantics.evaluate, g),
                    partial(semantics.evaluate, _TRANSFORMS[label](g))))
    if (fixtures / "fx3.wtg").exists() and (fixtures / "fx3.hom").exists():
        g = _load_grammar(str(fixtures / "fx3.wtg"))
        h = _load_hom(str(fixtures / "fx3.hom"), g.alphabet)
        out = image_grammar(transforms.normalize(g), h)
        failures += not _passes(
            "fx3 image-oracle", _oracle, out.alphabet, size,
            partial(image_weight_oracle, h, g),
            partial(semantics.evaluate, out))
    return 1 if failures else 0


def _passes(label: str, check, *args) -> bool:
    """Run one battery check and print its PASS or FAIL line."""
    try:
        check(*args)
    except WtgcError:
        print(f"{label}: FAIL")
        return False
    print(f"{label}: PASS")
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtgc",
        description="weighted tree grammars with subtree constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("eval", cmd_eval, help="evaluate a tree")
    p.add_argument("--grammar", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("derivs", cmd_derivs, help="print complete left-most derivations")
    p.add_argument("--grammar", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--target")

    p = add("transform", cmd_transform, help="apply a unary transform")
    p.add_argument("name", choices=sorted(_TRANSFORMS) + ["relabel"])
    p.add_argument("--grammar", required=True)
    p.add_argument("--out")
    p.add_argument("--oracle-size", type=int, default=0)
    p.add_argument("--map", nargs="*", help="relabel entries old=new")
    p.add_argument("--map-file", help="file of relabel entries, one per line")

    for name, fn in (("union", cmd_union), ("product", cmd_product),
                     ("restrict", cmd_restrict)):
        p = add(name, fn)
        p.add_argument("--grammar", required=True)
        p.add_argument("--grammar2", required=True)
        p.add_argument("--out")
        p.add_argument("--oracle-size", type=int, default=0)

    p = add("support", cmd_support, help="support grammar or automaton")
    p.add_argument("--grammar", required=True)
    p.add_argument("--unambiguous", action="store_true")
    p.add_argument("--out")
    p.add_argument("--oracle-size", type=int, default=0)

    p = add("complement", cmd_complement, help="complement of the support")
    p.add_argument("--grammar", required=True)
    p.add_argument("--out")
    p.add_argument("--oracle-size", type=int, default=0)

    p = add("disambiguate", cmd_disambiguate)
    p.add_argument("--grammar", required=True)
    p.add_argument("--hom", choices=("support", "identity"),
                   default="support")
    p.add_argument("--out")
    p.add_argument("--oracle-size", type=int, default=0)

    p = add("image", cmd_image, help="constrained grammar for a hom image")
    p.add_argument("--grammar", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("--out")
    p.add_argument("--oracle-size", type=int, default=0)

    p = add("image-eval", cmd_image_eval,
            help="brute-force image weight of a tree")
    p.add_argument("--grammar", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("pump", cmd_pump, help="grow an accepted tree")
    p.add_argument("--grammar", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--count", type=int, default=3)

    p = add("separation", cmd_separation,
            help="print the witness family pair")
    p.add_argument("--n", type=int, required=True)

    p = add("decide", cmd_decide,
            help="support emptiness/finiteness of an eq-restricted "
                 "grammar (inputs that are not homomorphic images are "
                 "accepted as an extension)")
    p.add_argument("property", choices=("empty", "finite"))
    p.add_argument("--grammar", required=True)
    p.add_argument("--explain", action="store_true")

    p = add("oracle", cmd_oracle, help="fixture cross-check battery")
    p.add_argument("--fixtures", default="fixtures")
    p.add_argument("--size", type=int, default=6)

    return parser


def main(argv=None) -> int:
    # only the term printer (`term_str`) still recurses; the raised limit
    # is put back on return so that in-process callers keep their own
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            return args.fn(args)
        except WtgcError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
