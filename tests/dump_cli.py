"""Run a fixed matrix of `wtgc` commands in-process and write each result.

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/dump_cli.py OUT

Each case is written as its argv, its exit code, its stdout and its
stderr, and, for `--out`, the file written.  The checkout and the
temporary directory are masked, and help is formatted 80 columns wide.
The matrix runs every fixture through every construction with its
oracle, the decisions, evaluation, derivations (also on an ambiguous
grammar, where trees have several, and on terms with repeated siblings),
relabeling, the image, pumping, the separation family and the oracle
battery, then the error paths, `--help` of every command and the usage
errors.  Run it in two checkouts and compare the files byte for byte to
show that a change keeps the command line's behaviour.  Not part of the
test suite.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

from wtgc import cli  # noqa: E402

NAMES = ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6")
TREES = {"fx3": "phi(gamma(alpha))", "fx4": "g(f(a,a),f(a,a))",
         "fx5": "f(g(a,a),g(a,a))"}
SIGMA_TREE = "sigma(gamma(gamma(alpha)),gamma(alpha))"
AMBIGUOUS = """semiring nat
alphabet alpha:0 gamma:1 sigma:2
nonterminals q r
final q = 1
prod alpha -> q @ 1
prod alpha -> r @ 2
prod gamma(q) -> q @ 1
prod gamma(r) -> q @ 3
prod gamma(q) -> r @ 2
prod gamma(r) -> r @ 1
prod sigma(q,q) -> q @ 1
prod sigma(q,r) -> q [ne 1=2] @ 2
"""


def fx(name):
    return str(FIXTURES / name)


def matrix(tmp):
    for name in NAMES:
        g = ["--grammar", fx(f"{name}.wtg")]
        for transform in ("normalize", "boolean-finals", "eliminate-zero",
                          "constraint-determine"):
            yield ["transform", transform, *g, "--oracle-size", "5"]
        yield ["support", *g, "--oracle-size", "5"]
        yield ["support", *g, "--unambiguous", "--oracle-size", "5"]
        yield ["complement", *g, "--oracle-size", "5"]
        for hom in ("support", "identity"):
            yield ["disambiguate", *g, "--hom", hom, "--oracle-size", "5"]
        for command in ("union", "product", "restrict"):
            yield [command, *g, "--grammar2", fx("fx2gp.wtg"),
                   "--oracle-size", "4"]
        for prop in ("empty", "finite"):
            yield ["decide", prop, *g, "--explain"]
        tree = TREES.get(name, SIGMA_TREE)
        yield ["eval", *g, "--tree", tree, "--format", "json"]
        yield ["derivs", *g, "--tree", tree]
    ambiguous = Path(tmp) / "ambiguous.wtg"
    ambiguous.write_text(AMBIGUOUS)
    g = ["--grammar", str(ambiguous)]
    yield ["derivs", *g, "--tree", "sigma(gamma(alpha),gamma(gamma(alpha)))"]
    for target in ("q", "r"):
        yield ["derivs", *g, "--tree", "gamma(gamma(alpha))",
               "--target", target]
    map_file = Path(tmp) / "map.txt"
    map_file.write_text("f=g\n# comment\n")
    yield ["transform", "relabel", "--grammar", fx("fx4.wtg"),
           "--map", "f=g", "--oracle-size", "6"]
    yield ["transform", "relabel", "--grammar", fx("fx4.wtg"),
           "--map-file", str(map_file), "--oracle-size", "6"]
    fx3 = ["--grammar", fx("fx3.wtg"), "--hom", fx("fx3.hom")]
    yield ["image", *fx3, "--oracle-size", "6"]
    yield ["image-eval", *fx3,
           "--tree", "sigma(gamma(gamma(gamma(alpha))),gamma(gamma(alpha)))"]
    tree = "a"
    for _ in range(7):
        tree = f"g({tree},{tree})"
    yield ["pump", "--grammar", fx("fx4.wtg"), "--tree", tree,
           "--count", "2"]
    yield ["pump", "--grammar", fx("fx4.wtg"), "--tree", tree,
           "--count", "-1"]
    yield ["separation", "--n", "3"]
    # repeated siblings: written with spaces, and the separation family
    shared = ["--grammar", fx("fx2g.wtg"), "--tree",
              "sigma( gamma(alpha) , gamma(alpha) )"]
    tree = "g(a,a)"
    for _ in range(3):
        tree = f"f({tree},{tree})"
    separation = ["--grammar", fx("fx5.wtg"), "--tree", tree]
    for g in (shared, separation):
        yield ["eval", *g]
        yield ["derivs", *g]
    yield ["separation", "--n", "0"]
    yield ["oracle", "--fixtures", str(FIXTURES), "--size", "4"]
    yield ["transform", "normalize", "--grammar", fx("fx1.wtg"),
           "--oracle-size", "40"]
    yield ["eval", "--grammar", fx("fx1.wtg"), "--tree", "sigma(alpha)"]
    yield ["transform", "normalize", "--grammar", fx("fx1.wtg"),
           "--out", str(Path(tmp) / "out.wtg")]
    yield ["--help"]
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    for command in commands:
        yield [command, "--help"]
    for command in ("transform", "decide", "union", "eval"):
        yield [command]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded: the dump compares crashes too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main(path):
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp, open(path, "w") as dump:
        def mask(text):
            return text.replace(tmp, "<tmp>").replace(str(ROOT), "<root>")

        for argv in matrix(tmp):
            code, out, err = run(argv)
            dump.write(mask(f"$ wtgc {' '.join(argv)}\nexit {code}\n"
                            f"--- stdout\n{out}--- stderr\n{err}"))
            if "--out" in argv:
                written = Path(argv[argv.index("--out") + 1])
                dump.write(mask(f"--- {written}\n{written.read_text()}"))
            dump.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
