"""Write `enumerate_support` over a fixed grammar set, one line per grammar.

    PYTHONPATH=src python tests/dump_support.py OUT

The set holds 207 grammars: `random_eq_restricted` seeds 0-99 at size 8,
`random_wtgc` seeds 0-59 at size 6, the seven fixtures at size 7 and the
40 eq-restricted grammars of the oracle-sweep benchmark, seed 7, at size
8.  Each line is the grammar's name, the number of trees and the trees
in the order returned.  Run it in two checkouts and compare the files
byte for byte to show that a change keeps the enumeration.  Not part of
the test suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from conftest import (  # noqa: E402
    load_grammar, random_eq_restricted, random_wtgc)
from wtgc.decision import enumerate_support  # noqa: E402
from wtgc.syntax import parse_grammar  # noqa: E402
from wtgc.trees import term_str  # noqa: E402
from workloads import SCALES, oracle_sweep_setup  # noqa: E402


def grammars():
    for seed in range(100):
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


if __name__ == "__main__":
    main(sys.argv[1])
