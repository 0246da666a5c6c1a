import sys

import pytest

from conftest import (FIXTURES, load_grammar, load_hom, random_eq_restricted,
                      random_ne_wtgc, random_wta_and_hom, random_wtgc, t)
from wtgc import syntax
from wtgc.errors import GrammarError, ParseError, WtgcError
from wtgc.grammar import Production, Wtgc, classify
from wtgc.homomorphism import image_grammar, relabeling_hom
from wtgc.semiring import (BOOLEAN, INF, NATURAL, IntegersMod, Semiring,
                           identity_hom, support_hom)
from wtgc.syntax import (
    parse_grammar,
    parse_hom,
    parse_term,
    serialize_grammar,
    serialize_hom,
)
from wtgc.transforms import (
    boolean_finals,
    complement_support,
    constraint_determine,
    disambiguate,
    disjoint_union,
    eliminate_zero_derivations,
    hadamard,
    normalize,
    relabel,
    restrict_support,
    support_automaton,
)
from wtgc.trees import (
    RankedAlphabet,
    Tree,
    enumerate_trees,
    leaf,
    parse_pos,
    term_str,
)

ABC = RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})
FIXTURE_NAMES = ("fx1", "fx2g", "fx2gp", "fx3", "fx4", "fx5", "fx6")


def test_parse_term_whitespace_insignificant():
    a = parse_term("sigma(gamma(alpha),alpha)", ABC)
    b = parse_term(" sigma ( gamma( alpha ) , alpha ) ", ABC)
    assert a == b == t("sigma", t("gamma", leaf("alpha")), leaf("alpha"))


def test_parse_term_arity_mismatch():
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_term("sigma(alpha)", ABC)


def test_parse_term_unknown_symbol():
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_term("tau(alpha)", ABC)


def test_parse_term_variables_only_when_allowed():
    tree = parse_term("sigma(x1,x1)", ABC, allow_variables=True)
    assert tree == t("sigma", leaf("x1"), leaf("x1"))
    with pytest.raises(ParseError):
        parse_term("sigma(x1,x1)", ABC)


def test_parse_term_trailing_garbage():
    with pytest.raises(ParseError):
        parse_term("alpha alpha", ABC)


def test_parse_term_shares_equal_subtrees():
    tree = parse_term("sigma(gamma(alpha),gamma(alpha))", ABC)
    left, right = tree.children
    assert left is right
    unshared = t("sigma", t("gamma", leaf("alpha")), t("gamma", leaf("alpha")))
    assert tree == unshared and hash(tree) == hash(unshared)
    assert tree.size == 5
    assert term_str(tree) == "sigma(gamma(alpha),gamma(alpha))"


def test_parse_term_needs_no_recursion():
    depth = 100000
    text = "gamma(" * depth + "alpha" + ")" * depth
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree = parse_term(text, ABC)
    finally:
        sys.setrecursionlimit(old)
    built = leaf("alpha")
    for _ in range(depth):
        built = Tree("gamma", [built])
    assert tree == built
    assert tree.size == depth + 1


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of term"),
    ("sigma(", "unexpected end of term"),
    ("sigma(alpha,)", "expected a name, found ')'"),
    ("sigma(,alpha)", "expected a name, found ','"),
    ("gamma()", "expected a name, found ')'"),
    ("sigma(alpha alpha)", "expected ')', found 'alpha'"),
    ("alpha$", "unexpected character '$'"),
    ("tau(alpha$", "unexpected character '$'"),
    (")", "expected a name, found ')'"),
    ("sigma(alpha)", "arity mismatch at 'sigma'"),
    ("q(alpha)", "nonterminal 'q' with children"),
    ("x1", "unknown symbol 'x1'"),
    ("alpha alpha", "trailing input 'alpha'"),
    ("gamma(alpha))", "trailing input ')'"),
    ("1alpha", "unexpected character '1'"),
    ("sigma(alpha,,alpha)", "expected a name, found ','"),
])
def test_parse_term_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_term(text, ABC, frozenset({"q"}), line=3)
    assert str(info.value) == f"{message} at line 3"


def test_parse_term_round_trips_every_small_tree():
    for name in FIXTURE_NAMES:
        alphabet = load_grammar(name).alphabet
        for tree in enumerate_trees(alphabet, 6):
            assert parse_term(term_str(tree), alphabet) == tree


def test_grammar_arity_error_carries_line():
    text = "\n".join([
        "semiring nat",
        "alphabet alpha:0 sigma:2",
        "nonterminals q",
        "prod sigma(q) -> q @ 1",
    ])
    with pytest.raises(ParseError, match="at line 4"):
        parse_grammar(text)


def test_grammar_classification_from_file(fx1):
    cls = classify(fx1)
    assert cls.positive and cls.classic


def test_unknown_directive():
    with pytest.raises(ParseError, match="at line 1"):
        parse_grammar("semirings arctic")


def test_missing_weight():
    text = "\n".join([
        "semiring nat",
        "alphabet alpha:0",
        "nonterminals q",
        "prod alpha -> q",
    ])
    with pytest.raises(ParseError, match="weight"):
        parse_grammar(text)


@pytest.mark.parametrize("header, entries, message", [
    ("alphabet a:0", ["final q = 1", "final q = 2"],
     "duplicate final weight for 'q' at line 5"),
    ("alphabet a:0", ["alphabet a:1"],
     "duplicate alphabet symbol 'a' at line 4"),
    ("alphabet a:0 a:1", [], "duplicate alphabet symbol 'a' at line 2"),
    ("alphabet a:0", ["semiring nat"], "duplicate semiring line at line 4"),
])
def test_duplicate_entries_are_rejected(header, entries, message):
    text = "\n".join(["semiring nat", header, "nonterminals q", *entries,
                      "prod a -> q @ 1"])
    with pytest.raises(ParseError) as info:
        parse_grammar(text)
    assert str(info.value) == message


# every other message of the grammar reader, in full; messages that
# the reader only passes on from the library carry no line
@pytest.mark.parametrize("lines, message", [
    (["alphabet a:0", "nonterminals q", "prod a -> q @ 1"],
     "missing semiring line"),
    (["semiring nat", "alphabet a f:2"], "bad alphabet entry 'a' at line 2"),
    (["semiring nat", "alphabet a:0", "nonterminals q", "final q 1"],
     "bad final line at line 4"),
    (["semiring nat", "alphabet a:0", "nonterminals q", "final r = 1"],
     "final weight for unknown nonterminal 'r' at line 4"),
    (["semiring nat", "alphabet a:0", "nonterminals q", "prod a q @ 1"],
     "production needs `->` at line 4"),
    (["semiring nat", "alphabet a:0", "nonterminals q r",
      "prod a -> q r @ 1"], "bad target 'q r' at line 4"),
    (["semiring nat", "alphabet a:0 f:2", "nonterminals q",
      "prod f(q,q) -> q [eq 1 2] @ 1"], "bad constraint '1 2' at line 4"),
    (["semiring nat", "alphabet a:0 x1:0", "nonterminals q",
      "prod a -> q @ 1"], "bad symbol name 'x1'"),
    (["semiring nat", "alphabet a:0 q:0", "nonterminals q",
      "prod a -> q @ 1"], "name 'q' is both a nonterminal and a symbol"),
])
def test_grammar_reader_messages(lines, message):
    with pytest.raises(ParseError) as info:
        parse_grammar("\n".join(lines))
    assert str(info.value) == message


def test_parse_term_variable_with_children():
    # only a term that allows variables reaches this check
    with pytest.raises(ParseError) as info:
        parse_term("sigma(x1(alpha),alpha)", ABC, allow_variables=True,
                   line=2)
    assert str(info.value) == "variable 'x1' with children at line 2"


# numeric literals are ASCII digit strings: `str.isdigit` also takes
# superscripts, which `int` refuses, and other scripts' digits, which it
# reads as numbers
@pytest.mark.parametrize("semiring, alphabet, line, message", [
    ("nat", "a:0 f:\u00b2", "prod a -> q @ 1", "bad alphabet entry"),
    ("nat", "a:0 f:\u0664", "prod a -> q @ 1", "bad alphabet entry"),
    ("zmod \u0664", "a:0", "prod a -> q @ 1", "unknown semiring"),
    ("nat", "a:0", "prod a -> q @ \u0663", "bad nat literal"),
    ("nat", "a:0", "final q = \u0661", "bad nat literal"),
    ("tropical", "a:0", "prod a -> q @ \u0661", "bad tropical literal"),
    ("arctic", "a:0", "prod a -> q @ \u00b9", "bad arctic literal"),
    ("zmod 5", "a:0", "prod a -> q @ \u0664", "bad zmod 5 literal"),
    ("boolean", "a:0", "prod a -> q @ \u0661", "bad boolean literal"),
    ("boolean", "a:0", "final q = +1", "bad boolean literal"),
    ("boolean", "a:0", "prod a -> q @ 2", "bad boolean literal"),
    ("boolean", "a:0", "final q = inf", "bad boolean literal"),
    ("nat", "a:0 f:2", "prod f(q,q) -> q [eq +1=2] @ 1", "bad constraint"),
    ("nat", "a:0 f:2", "prod f(q,q) -> q [eq 1_0=2] @ 1", "bad constraint"),
    ("nat", "a:0 f:2", "prod f(q,q) -> q [ne 1. 2=2] @ 1",
     "bad constraint"),
    ("nat", "a:0 f:2", "prod f(q,q) -> q [eq \u0661=2] @ 1",
     "bad constraint"),
])
def test_numeric_literals_are_ascii_digits(semiring, alphabet, line,
                                           message):
    text = "\n".join([f"semiring {semiring}", f"alphabet {alphabet}",
                      "nonterminals q", line, "prod a -> q @ 1"])
    with pytest.raises(ParseError, match=message):
        parse_grammar(text)


def test_overlong_rank_is_a_parse_error():
    # `int` reads at most 4300 digits by default and raises ValueError
    text = "\n".join(["semiring nat", "alphabet a:0 f:" + "1" * 5000,
                      "nonterminals q", "prod a -> q @ 1"])
    with pytest.raises(ParseError, match="^rank too long at line 2$"):
        parse_grammar(text)


def test_overlong_hom_variable_is_a_parse_error():
    text = f"hom\nalpha -> alpha\nphi -> gamma(x{'1' * 5000})\n"
    with pytest.raises(ParseError, match="^too many digits in 'phi'$"):
        parse_hom(text)


def test_leading_zeros_stay_accepted():
    g = parse_grammar("\n".join([
        "semiring zmod 05", "alphabet a:0 f:02", "nonterminals q",
        "final q = 01", "prod a -> q @ 04",
        "prod f(q,q) -> q [eq 01=02.01] @ 003"]))
    assert g.semiring.name == "zmod 5" and g.alphabet.rank("f") == 2
    assert {p.weight for p in g.productions} == {3, 4}
    (p,) = [p for p in g.productions if p.eq]
    assert p.eq == {((1,), (2, 1))} and g.final["q"] == 1


def test_each_position_text_is_parsed_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_pos(text)

    monkeypatch.setattr(syntax, "parse_pos", counted)
    g = parse_grammar("\n".join([
        "semiring nat", "alphabet a:0 f:2", "nonterminals q r",
        "prod f(q,q) -> q [eq 1=2] [ne 1.1=2] @ 1",
        "prod f(q,r) -> q [eq 1 = 2, 2=1.1] @ 2",
        "prod f(r,r) -> r [ne 2=1.1] @ 1", "prod a -> q @ 1"]))
    assert sorted(calls) == ["1", "1.1", "2"]
    assert len(g.productions) == 4
    # the memo lives for one call only
    parse_grammar("semiring nat\nalphabet a:0 f:2\nnonterminals q\n"
                  "prod f(q,q) -> q [eq 1=2] @ 1")
    assert sorted(calls) == ["1", "1", "1.1", "2", "2"]


def test_round_trip_all_fixtures():
    for name in FIXTURE_NAMES:
        g = load_grammar(name)
        text = serialize_grammar(g)
        again = parse_grammar(text)
        assert again == g
        assert serialize_grammar(again) == text



def test_writer_refuses_semirings_the_reader_does_not_read_back():
    from operator import add, and_, or_

    alphabet = RankedAlphabet({"a": 0})
    cases = [
        Semiring("minplus", INF, 0, min, add, sample=(INF, 0, 3)),
        Semiring("boolean", 0, 1, or_, and_, elements=(0, 1),
                 zero_divisor_free=False),
        Semiring("zmod 1", 0, 0, add, add, elements=(0,)),
    ]
    for s in cases:
        g = Wtgc({"q"}, alphabet, {"q": s.one}, [], s)
        with pytest.raises(GrammarError) as info:
            serialize_grammar(g)
        assert str(info.value) == f"semiring {s.name!r} would not read back"
    for s in (BOOLEAN, NATURAL, IntegersMod(4), IntegersMod(5)):
        g = Wtgc({"q"}, alphabet, {"q": s.one},
                 [Production(leaf("a"), "q", s.one)], s)
        assert parse_grammar(serialize_grammar(g)) == g

# the 3-state counter of the constructions benchmark; its weights 2 and
# 3 are zero divisors in zmod 4 and zmod 6
COUNTER = """semiring nat
alphabet alpha:0 gamma:1 sigma:2
nonterminals c0 c1 c2
final c2 = 3
prod alpha -> c0 @ 2
prod gamma(c2) -> c2 @ 2
prod gamma(c0) -> c1 @ 1
prod gamma(c1) -> c2 @ 2
prod gamma(c2) -> c0 @ 3
prod sigma(c0,c1) -> c2 [eq 1=2] @ 2
prod sigma(c0,c1) -> c2 [ne 1=2] @ 2
prod sigma(c1,c2) -> c1 @ 2
prod sigma(gamma(c0),c2) -> c2 @ 3
"""

# names that hold `#` in every section, as construction outputs do
HASH_NAMES = """semiring nat
alphabet a#0:0 f#2:2 g:1
nonterminals q q#1 q#[0]
final q#1 = 2 # a comment after whitespace
prod a#0 -> q @ 1
prod g(q) -> q#1 @ 2
prod f#2(q,q#1) -> q#[0] [eq 1=2.1] @ 1
prod f#2(q#[0],q) -> q#1 [ne 1.1=2] @ 3
"""


def _disambiguated(g):
    s = g.semiring
    hom = (support_hom(s) if s.zero_sum_free and s.zero_divisor_free
           else identity_hom(s))
    return disambiguate(normalize(eliminate_zero_derivations(g)), hom)


CONSTRUCTIONS = {
    "normalize": normalize,
    "boolean_finals": boolean_finals,
    "eliminate_zero_derivations": eliminate_zero_derivations,
    "constraint_determine": lambda g: constraint_determine(normalize(g)),
    "disjoint_union": lambda g: disjoint_union(g, g),
    "hadamard": lambda g: hadamard(g, g),
    "disambiguate": _disambiguated,
    "support_automaton": support_automaton,
    "complement_support": complement_support,
    "restrict_support": lambda g: restrict_support(g, g),
    "relabel": lambda g: relabel(
        g, {name: f"{name}#r" for name in g.alphabet.names()}),
}


def test_every_construction_reads_back():
    inputs = [(name, load_grammar(name)) for name in FIXTURE_NAMES]
    inputs.append(("hash names", parse_grammar(HASH_NAMES)))
    inputs += [(semiring, parse_grammar(COUNTER.replace("nat", semiring)))
               for semiring in ("nat", "zmod 4", "zmod 6")]
    for seed in range(20):
        inputs += [(f"random_wtgc({seed})", random_wtgc(seed)),
                   (f"random_eq_restricted({seed})",
                    random_eq_restricted(seed)),
                   (f"random_ne_wtgc({seed})", random_ne_wtgc(seed)),
                   (f"image {seed}",
                    image_grammar(*random_wta_and_hom(seed)))]
    outputs = [("image_grammar", name, g) for name, g in inputs
               if name.startswith("image")]
    for name, g in inputs:
        for construction, build in CONSTRUCTIONS.items():
            try:
                outputs.append((construction, name, build(g)))
            except WtgcError:  # outside the construction's class
                pass
    built = {construction for construction, _, _ in outputs}
    assert built == {*CONSTRUCTIONS, "image_grammar"}
    hashed = {construction for construction, _, out in outputs
              if "#" in serialize_grammar(out)}
    assert {"boolean_finals", "eliminate_zero_derivations",
            "constraint_determine", "disambiguate",
            "relabel"} <= hashed, hashed
    for construction, name, out in outputs:
        assert parse_grammar(serialize_grammar(out)) == out, (
            construction, name)


def test_serialization_is_canonical():
    base = (FIXTURES / "fx1.wtg").read_text()
    lines = [ln for ln in base.splitlines() if ln.strip()
             and not ln.lstrip().startswith("#")]
    shuffled = "\n".join(reversed(lines))
    # reordering the source lines leaves the canonical form unchanged
    assert serialize_grammar(parse_grammar(shuffled)) \
        == serialize_grammar(parse_grammar(base))


def test_constraint_blocks():
    text = "\n".join([
        "semiring nat",
        "alphabet a:0 f:3",
        "nonterminals q",
        "final q = 1",
        "prod f(q,q,q) -> q [eq 1=2, 1=3] [ne 2.1=3.1] @ 2",
    ])
    g = parse_grammar(text)
    (p,) = [p for p in g.productions if p.lhs.label == "f"]
    assert p.eq == {((1,), (2,)), ((1,), (3,))}
    assert p.ineq == {((2, 1), (3, 1))}
    assert parse_grammar(serialize_grammar(g)) == g


def test_hom_round_trip(fx3):
    h = load_hom("fx3", fx3.alphabet)
    text = serialize_hom(h)
    again = parse_hom(text, fx3.alphabet)
    assert again.rhs == h.rhs
    assert serialize_hom(again) == text


def test_hom_round_trip_with_hash_in_names():
    source = RankedAlphabet({"a#0": 0, "f#2": 2})
    target = RankedAlphabet({"b#1": 0, "f#2": 2})
    h = relabeling_hom(source, {"a#0": "b#1"}, target)
    text = serialize_hom(h)
    assert "a#0 -> b#1" in text
    assert parse_hom(text + "# a comment\n", source).rhs == h.rhs


def test_hom_requires_header():
    with pytest.raises(ParseError, match="hom"):
        parse_hom("alpha -> alpha")


@pytest.mark.parametrize("text, message", [
    ("", "homomorphism files start with `hom`"),
    ("# only a comment\n", "homomorphism files start with `hom`"),
    ("hom\nalpha alpha\n", "homomorphism rule needs `->` at line 2"),
    ("hom\nx1 -> alpha\n", "bad source symbol 'x1' at line 2"),
    ("hom\n\nalpha -> alpha\nalpha -> beta\n",
     "duplicate rule for 'alpha' at line 4"),
])
def test_hom_reader_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_hom(text)
    assert str(info.value) == message


def test_hom_infers_alphabets():
    h = parse_hom("hom\nalpha -> alpha\nphi -> sigma(x1,gamma(x1))\n")
    assert h.source.rank("phi") == 1
    assert h.target.rank("sigma") == 2
    assert h.target.rank("gamma") == 1


def test_hom_rejects_inconsistent_target_rank():
    with pytest.raises(ParseError):
        parse_hom("hom\nalpha -> alpha\nphi -> alpha(x1)\n")


def test_deep_hom_rhs_needs_no_recursion():
    # phi's rhs is 5000 gammas above x1, far beyond the default limit
    depth = 5000
    text = f"hom\nalpha -> alpha\nphi -> {'gamma(' * depth}x1{')' * depth}\n"
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        h = parse_hom(text)
        flags = h.nondeleting, h.nonerasing
    finally:
        sys.setrecursionlimit(old)
    assert flags == (True, True)
    assert h.source.rank("phi") == 1 and h.target.rank("gamma") == 1
    assert h.rhs["phi"].size == depth + 1
