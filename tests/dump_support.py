"""Write `enumerate_support` and both support decisions over a fixed
grammar set, two lines per grammar.

    PYTHONPATH=src python tests/dump_support.py OUT

The set holds 407 grammars: `random_eq_restricted` seeds 0-299 at size
8, `random_wtgc` seeds 0-59 at size 6, the seven fixtures at size 7 and
the 40 eq-restricted grammars of the oracle-sweep benchmark, seed 7, at
size 8.  The first line is the grammar's name, the number of trees and
the trees in the order returned.  The second is the name, `decide:`,
then `is_support_empty` and the verdict and explanation of
`finiteness_analysis`, or the class and message of the error they
raise.  Run it in two checkouts and compare the files byte for byte to
show that a change keeps the enumeration and the decisions.  Not part
of the test suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from conftest import (  # noqa: E402
    load_grammar, random_eq_restricted, random_wtgc)
from wtgc.decision import (  # noqa: E402
    enumerate_support, finiteness_analysis, is_support_empty)
from wtgc.errors import WtgcError  # noqa: E402
from wtgc.syntax import parse_grammar  # noqa: E402
from wtgc.trees import term_str  # noqa: E402
from workloads import SCALES, oracle_sweep_setup  # noqa: E402


def grammars():
    for seed in range(300):
        yield f"eq{seed}", random_eq_restricted(seed), 8
    for seed in range(60):
        yield f"random{seed}", random_wtgc(seed), 6
    for name in ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6"):
        yield name, load_grammar(name), 7
    sweep = oracle_sweep_setup(7, SCALES["full"])["eq"]
    for i, (text, *_) in enumerate(sweep):
        yield f"sweep{i}", parse_grammar(text), 8


def main(path):
    with open(path, "w") as out:
        for name, g, size in grammars():
            support = enumerate_support(g, size)
            out.write(" ".join([name, str(len(support))]
                               + [term_str(x) for x in support]) + "\n")
            out.write(f"{name} decide: {decisions(g)}\n")


def decisions(g):
    try:
        empty = is_support_empty(g)
        finite, reason = finiteness_analysis(g)
    except WtgcError as exc:
        return f"{type(exc).__name__}: {exc}"
    return (f"{'empty' if empty else 'nonempty'} "
            f"{'finite' if finite else 'infinite'}: {reason}")


if __name__ == "__main__":
    main(sys.argv[1])
