"""Write the eq-restriction and four constructions over a fixed grammar set.

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/dump_constructions.py OUT

The set holds 208 grammars: the seven fixtures, the image of fx3 under
its homomorphism, `random_eq_restricted` seeds 0-99, `random_wtgc` seeds
0-59 and `random_ne_wtgc` seeds 0-39.  For each grammar the file holds
its eq-restriction (the sink and, per production, the governing map in
index order, or `none`), then the serialized outputs of
`constraint_determine(normalize(g))`, `hadamard(g, g)`,
`support_automaton(g)` and `complement_support(g)`; a construction that
raises is written as its error class and message.  Run it in two
checkouts and compare the files byte for byte to show that a change
keeps these outputs.  The production and nonterminal totals of each
construction over the whole set are printed on stderr.  Not part of the
test suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests")]

from conftest import (  # noqa: E402
    load_grammar, load_hom, random_eq_restricted, random_ne_wtgc,
    random_wtgc)
from wtgc.errors import WtgcError  # noqa: E402
from wtgc.grammar import eq_restriction  # noqa: E402
from wtgc.homomorphism import image_grammar  # noqa: E402
from wtgc.syntax import serialize_grammar  # noqa: E402
from wtgc.transforms import (  # noqa: E402
    complement_support, constraint_determine, hadamard, normalize,
    support_automaton)

CONSTRUCTIONS = (
    ("constraint_determine", lambda g: constraint_determine(normalize(g))),
    ("hadamard", lambda g: hadamard(g, g)),
    ("support_automaton", support_automaton),
    ("complement_support", complement_support),
)


def grammars():
    for name in ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6"):
        yield name, load_grammar(name)
    fx3 = load_grammar("fx3")
    yield "fx3_image", image_grammar(fx3, load_hom("fx3", fx3.alphabet))
    for seed in range(100):
        yield f"eq{seed}", random_eq_restricted(seed)
    for seed in range(60):
        yield f"random{seed}", random_wtgc(seed)
    for seed in range(40):
        yield f"ne{seed}", random_ne_wtgc(seed)


def restriction_lines(g):
    er = eq_restriction(g)
    if er is None:
        return ["eq-restriction none"]
    out = [f"eq-restriction sink {er.sink}"]
    for p, spelling in zip(g.productions, g.spellings):
        gp = " ".join(f"{i}:{j}" for i, j in sorted(er.governing[p].items()))
        out.append(f"  {spelling} | {gp}")
    return out


def main(path):
    totals = {label: [0, 0] for label, _ in CONSTRUCTIONS}
    with open(path, "w") as out:
        for name, g in grammars():
            lines = [f"== {name}", *restriction_lines(g)]
            for label, build in CONSTRUCTIONS:
                try:
                    built = build(g)
                except WtgcError as e:
                    text = f"{type(e).__name__}: {e}\n"
                else:
                    text = serialize_grammar(built)
                    totals[label][0] += len(built.productions)
                    totals[label][1] += len(built.nonterminals)
                lines.append(f"-- {label}")
                lines.append(text.rstrip("\n"))
            out.write("\n".join(lines) + "\n")
    for label, (productions, nonterminals) in totals.items():
        print(f"{label}: {productions} productions, {nonterminals} "
              "nonterminals", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1])
