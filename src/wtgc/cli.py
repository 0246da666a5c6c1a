"""Command-line front end.

One command per run: evaluation, derivation dumps, the grammar
transforms, image construction, pumping, the support decisions, and a
fixture-driven oracle battery.  Weights always print in semiring-literal
syntax, and output is byte-deterministic for fixed inputs.

`build_parser` reads one table of (name, handler, help, arguments) rows,
in which arguments shared by several commands are declared once.  The
parser is built once per process, on the first `main` call.  Each
handler takes the parsed arguments and the `--grammar` grammar, if any.
A construction returns its output and the weight it must give each tree;
`main` compares the two up to `--oracle-size` and writes the output.
The other commands print their result and return the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from pathlib import Path

from . import decision, pumping, semantics, transforms
from .errors import WtgcError
from .homomorphism import image_grammar, image_weight_oracle, relabeling_hom
from .semiring import identity_hom, support_hom
from .syntax import (
    content_lines,
    parse_grammar,
    parse_hom,
    parse_term,
    serialize_grammar,
)
from .trees import enumerate_trees, pos_str, term_str

ORACLE_SIZE_CAP = 12


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise WtgcError(f"cannot read {path!r}: {reason}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise WtgcError(
            f"cannot write {path!r}: {exc.strerror or exc}") from None


def _emit_weight(g, weight, fmt: str):
    literal = g.semiring.format(weight)
    print(json.dumps({"weight": literal}) if fmt == "json" else literal)


def _oracle_size(value: int) -> int:
    if value < 1:
        raise WtgcError(f"oracle size {value} is below 1")
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


def _relabel_map(args, g) -> dict:
    """The relabeling of `--map-file` then `--map`, identity elsewhere."""
    entries = []
    if args.map_file is not None:
        entries = [line for _, line in content_lines(_read(args.map_file))]
    mapping = {}
    for entry in entries + (args.map or []):
        if "=" not in entry:
            raise WtgcError(f"bad relabel entry {entry!r} (want old=new)")
        old, new = (part.strip() for part in entry.split("=", 1))
        if old not in g.alphabet:
            raise WtgcError(f"symbol {old!r} is not in the alphabet")
        if old in mapping:
            raise WtgcError(f"symbol {old!r} relabeled twice")
        mapping[old] = new
    for name in g.alphabet.names():
        mapping.setdefault(name, name)
    return mapping


def cmd_eval(args, g):
    t = parse_term(args.tree, g.alphabet)
    _emit_weight(g, semantics.evaluate(g, t), args.format)
    return 0


def cmd_derivs(args, g):
    t = parse_term(args.tree, g.alphabet)
    targets = [args.target] if args.target else list(g.final_support())
    for q in targets:
        for d in semantics.derivations(g, t, q):
            steps = " ".join(f"({g.prod_id(p)} @ {pos_str(w)})"
                             for p, w in semantics.absolute_steps(d))
            print(f"{q}: {steps}")
    return 0


_TRANSFORMS = {
    "normalize": transforms.normalize,
    "boolean-finals": transforms.boolean_finals,
    "eliminate-zero": transforms.eliminate_zero_derivations,
    "constraint-determine": transforms.constraint_determine,
}


def cmd_transform(args, g):
    if args.name != "relabel":
        return _TRANSFORMS[args.name](g), partial(semantics.evaluate, g)
    mapping = _relabel_map(args, g)
    out = transforms.relabel(g, mapping)
    h = relabeling_hom(g.alphabet, mapping, out.alphabet)
    return out, partial(image_weight_oracle, h, g)


def cmd_pointwise(construct, combine, args, g):
    """A construction of two grammars whose weight is `combine` of the
    semiring and the two inputs' weights."""
    g2 = parse_grammar(_read(args.grammar2))
    return construct(g, g2), lambda t: combine(
        g.semiring, semantics.evaluate(g, t), semantics.evaluate(g2, t))


def cmd_support(args, g):
    out = (transforms.support_automaton(g) if args.unambiguous
           else transforms.support_grammar(g))
    return out, lambda t: int(semantics.evaluate(g, t) != g.semiring.zero)


def cmd_complement(args, g):
    return transforms.complement_support(g), lambda t: int(
        semantics.evaluate(g, t) == g.semiring.zero)


def cmd_disambiguate(args, g):
    hom = (identity_hom(g.semiring) if args.hom == "identity"
           else support_hom(g.semiring))
    out = transforms.disambiguate(g, hom)
    if args.oracle_size:
        witness = semantics.check_unambiguous_upto(
            out, _oracle_size(args.oracle_size))
        if witness is not None:
            raise WtgcError(f"ambiguous on {term_str(witness)}")
    return out, lambda t: hom(semantics.evaluate(g, t))


def cmd_image(args, g):
    h = parse_hom(_read(args.hom), g.alphabet)
    return (image_grammar(transforms.normalize(g), h),
            partial(image_weight_oracle, h, g))


def cmd_image_eval(args, g):
    h = parse_hom(_read(args.hom), g.alphabet)
    u = parse_term(args.tree, h.target)
    _emit_weight(g, image_weight_oracle(h, g, u), args.format)
    return 0


def cmd_pump(args, g):
    prepared = transforms.eliminate_zero_derivations(
        pumping.ensure_nonbot_child(g))
    t = parse_term(args.tree, prepared.alphabet)
    base = pumping.base_derivation(prepared, t)
    for pumped_tree, _ in pumping.pump(prepared, t, base, args.count):
        print(term_str(pumped_tree))
    return 0


def cmd_separation(args, g):
    for t in pumping.separation_family(args.n):
        print(term_str(t))
    return 0


def cmd_decide(args, g):
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


def cmd_oracle(args, g):
    size = _oracle_size(args.size)
    fixtures = Path(args.fixtures)
    failures = 0
    for name in ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6"):
        path = fixtures / f"{name}.wtg"
        if not path.exists():
            print(f"{name}: MISSING")
            failures += 1
            continue
        g = parse_grammar(_read(str(path)))
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
        g = parse_grammar(_read(str(fixtures / "fx3.wtg")))
        h = parse_hom(_read(str(fixtures / "fx3.hom")), g.alphabet)
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


@cache
def build_parser() -> argparse.ArgumentParser:
    # (flag, add_argument keywords), in the order argparse's messages use
    grammar = ("--grammar", dict(required=True))
    grammar2 = ("--grammar2", dict(required=True))
    tree = ("--tree", dict(required=True))
    fmt = ("--format", dict(choices=("text", "json"), default="text"))
    hom = ("--hom", dict(required=True))
    output = [("--out", {}), ("--oracle-size", dict(type=int, default=0))]
    pointwise = [grammar, grammar2, *output]
    commands = [
        ("eval", cmd_eval, "evaluate a tree", [grammar, tree, fmt]),
        ("derivs", cmd_derivs, "print complete left-most derivations",
         [grammar, tree, ("--target", {})]),
        ("transform", cmd_transform, "apply a unary transform", [
            ("name", dict(choices=sorted(_TRANSFORMS) + ["relabel"])),
            grammar, *output,
            ("--map", dict(nargs="*", help="relabel entries old=new")),
            ("--map-file",
             dict(help="file of relabel entries, one per line"))]),
        # looked up when run, since the parser outlives any one call
        ("union", partial(cmd_pointwise,
                          lambda g, g2: transforms.disjoint_union(g, g2),
                          lambda s, a, b: s.add(a, b)),
         "sum of two grammars' weights", pointwise),
        ("product", partial(cmd_pointwise,
                            lambda g, g2: transforms.hadamard(g, g2),
                            lambda s, a, b: s.mul(a, b)),
         "product of two grammars' weights", pointwise),
        ("restrict", partial(cmd_pointwise,
                             lambda g, g2: transforms.restrict_support(g, g2),
                             lambda s, a, b: a if b != s.zero else s.zero),
         "first grammar's weights on the second's support", pointwise),
        ("support", cmd_support, "support grammar or automaton",
         [grammar, ("--unambiguous", dict(action="store_true")), *output]),
        ("complement", cmd_complement, "complement of the support",
         [grammar, *output]),
        ("disambiguate", cmd_disambiguate,
         "semiring hom of the weights, one derivation per tree",
         [grammar, ("--hom", dict(choices=("support", "identity"),
                                  default="support")), *output]),
        ("image", cmd_image, "constrained grammar for a hom image",
         [grammar, hom, *output]),
        ("image-eval", cmd_image_eval, "brute-force image weight of a tree",
         [grammar, hom, tree, fmt]),
        ("pump", cmd_pump, "grow an accepted tree",
         [grammar, tree, ("--count", dict(type=int, default=3))]),
        ("separation", cmd_separation, "print the witness family pair",
         [("--n", dict(type=int, required=True))]),
        ("decide", cmd_decide, "support emptiness/finiteness of an "
         "eq-restricted grammar (inputs that are not homomorphic images "
         "are accepted as an extension)",
         [("property", dict(choices=("empty", "finite"))), grammar,
          ("--explain", dict(action="store_true"))]),
        ("oracle", cmd_oracle, "fixture cross-check battery",
         [("--fixtures", dict(default="fixtures")),
          ("--size", dict(type=int, default=6))]),
    ]
    parser = argparse.ArgumentParser(
        prog="wtgc",
        description="weighted tree grammars with subtree constraints")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_line, arguments in commands:
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(fn=fn)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    # still recursive: the term printer (`term_str`); the raised limit
    # is put back on return so that in-process callers keep their own
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        args = build_parser().parse_args(argv)
        try:
            g = (parse_grammar(_read(args.grammar)) if "grammar" in args
                 else None)
            result = args.fn(args, g)
            if "out" not in args:
                return result
            out, expected = result
            if args.oracle_size:
                _oracle(out.alphabet, args.oracle_size, expected,
                        partial(semantics.evaluate, out))
            text = serialize_grammar(out)
            if args.out is None:
                sys.stdout.write(text)
            else:
                _write(args.out, text)
            return 0
        except WtgcError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
