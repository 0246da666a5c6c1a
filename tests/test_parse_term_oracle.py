"""`parse_term` against a brute-force reference parser.

The reference below tokenizes with one `findall` and parses every token,
so it shares nothing with the fast path's string-method tokenizer or its
reuse of a right sibling that repeats its left neighbour's text.  Both
must give the same tree or the same `ParseError` text on every input.
"""

import random
import re
import sys

import pytest

from wtgc.errors import ParseError
from wtgc.syntax import parse_term
from wtgc.trees import NAME_RE, RankedAlphabet, Tree, is_variable, term_str

ALPHABET = RankedAlphabet({"a": 0, "b": 0, "h": 1, "hh": 1, "f": 2, "k": 3})
NONTERMINALS = frozenset({"q", "q'"})

# every token of a term in one `findall`: names and punctuation, plus an
# empty match at each non-space character that starts neither
_TOKENS_RE = re.compile(rf"{NAME_RE.pattern}|[(),]|(?=\S)")
_PUNCTUATION = frozenset("(),")


def reference_parse_term(text, alphabet=None, nonterminals=(),
                         allow_variables=False, line=None):
    tokens = _TOKENS_RE.findall(text)
    if "" in tokens:
        # what the tokens leave is whitespace and the bad characters
        bad = _TOKENS_RE.sub("", text).split()[0][0]
        raise ParseError(f"unexpected character {bad!r}", line)
    tokens.append("")  # end marker; no token is empty now
    shared = {}
    stack = []
    pos = 0
    while True:
        label = tokens[pos]
        pos += 1
        if not label:
            raise ParseError("unexpected end of term", line)
        if label in _PUNCTUATION:
            raise ParseError(f"expected a name, found {label!r}", line)
        if tokens[pos] == "(":
            pos += 1
            stack.append((label, []))
            continue
        children = ()
        while True:
            key = (label, tuple(map(id, children)))
            node = shared.get(key)
            if node is None:
                if alphabet is not None and label in alphabet:
                    if alphabet.rank(label) != len(children):
                        raise ParseError(f"arity mismatch at {label!r}", line)
                elif label in nonterminals:
                    if children:
                        raise ParseError(
                            f"nonterminal {label!r} with children", line)
                elif alphabet is not None:
                    if not (allow_variables and is_variable(label)):
                        raise ParseError(f"unknown symbol {label!r}", line)
                    if children:
                        raise ParseError(
                            f"variable {label!r} with children", line)
                node = shared[key] = Tree(label, children)
            if not stack:
                if tokens[pos]:
                    raise ParseError(f"trailing input {tokens[pos]!r}", line)
                return node
            label, children = stack[-1]
            children.append(node)
            tok = tokens[pos]
            pos += 1
            if tok == ",":
                break
            if tok != ")":
                raise ParseError(f"expected ')', found {tok!r}" if tok
                                 else "unexpected end of term", line)
            stack.pop()


def random_term(rng, depth):
    """A canonical term over ALPHABET, its nonterminals and x1, in which
    a sibling repeats its left neighbour with probability 0.6."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(("a", "b", "q", "q'", "x1"))
    name, rank = rng.choice(ALPHABET.symbols()[2:])
    children = [random_term(rng, depth - 1)]
    while len(children) < rank:
        children.append(children[-1] if rng.random() < 0.6
                        else random_term(rng, depth - 1))
    return f"{name}({','.join(children)})"


def spaced(rng, text):
    """text with whitespace after some commas and around some
    parentheses."""
    out = []
    for ch in text:
        if ch in "()" and rng.random() < 0.3:
            out.append(rng.choice((" ", "\t", "  ")))
        out.append(ch)
        if ch in "()," and rng.random() < 0.3:
            out.append(rng.choice((" ", "\n", "  ")))
    return "".join(out)


def mutate(rng, text):
    kind = rng.randrange(4)
    if kind == 0 and text:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("ab(),  qx1$'f.") + text[i + 1:]
    if kind == 1:
        return text[:rng.randrange(len(text) + 1)]
    if kind == 2:
        return spaced(rng, text)
    return text


def outcome(parse, text, **kwargs):
    try:
        tree = parse(text, **kwargs)
    except ParseError as exc:
        return "error", str(exc)
    return "tree", term_str(tree), tree.size, tree.height


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_term_matches_the_reference_parser(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(1500):
        text = mutate(rng, random_term(rng, rng.randrange(1, 6)))
        for kwargs in ({}, {"alphabet": ALPHABET,
                            "nonterminals": NONTERMINALS,
                            "allow_variables": rng.random() < 0.5,
                            "line": 4}):
            want = outcome(reference_parse_term, text, **kwargs)
            assert outcome(parse_term, text, **kwargs) == want, text
            kinds.add(want[0])
    assert kinds == {"tree", "error"}


@pytest.mark.parametrize("text", [
    "f(h(ab),h(a b))",           # equal once the spaces are dropped
    "f(h(a),h(a)b)",
    "f(h(a),h(a)",
    "f(h(a),h(a),h(a))",
    "f(f(a,b),f(a,b)) f(a,b)",
    "k(h(a),h(a),h(a$))",
    "f(h(a),h(a))),",
])
def test_parse_term_matches_the_reference_parser_on_near_repeats(text):
    for kwargs in ({}, {"alphabet": ALPHABET}):
        assert (outcome(parse_term, text, **kwargs)
                == outcome(reference_parse_term, text, **kwargs))


def test_equal_sibling_texts_give_one_object():
    tree = parse_term("k( f(h(a),b) ,f(h(a),b),  f( h(a) , b ) )", ALPHABET)
    first, second, third = tree.children
    assert first is second is third
    left, right = parse_term("f(h(a),h(a))").children
    assert left is right


def test_canonical_terms_print_back():
    rng = random.Random(7)
    for _ in range(500):
        text = random_term(rng, 5)
        assert term_str(parse_term(text)) == text


def test_siblings_differing_in_their_last_leaf():
    tree = parse_term("f(f(h(h(a)),b),f(h(h(a)),a))", ALPHABET)
    left, right = tree.children
    assert left is not right
    assert term_str(left) == "f(h(h(a)),b)"
    assert term_str(right) == "f(h(h(a)),a)"
    assert left.children[0] is right.children[0]


def test_same_label_comb():
    # every f's right sibling starts with f as well, so each level
    # compares a growing left span with a short right one
    depth = 2000
    text = "f(" * depth + "a" + ",f(a,b))" * depth
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree = parse_term(text, ALPHABET)
    finally:
        sys.setrecursionlimit(old)
    assert tree.size == 4 * depth + 1 and tree.height == depth + 1
    node, pair = tree, tree.children[1]
    for _ in range(depth):
        assert node.label == "f" and node.children[1] is pair
        node = node.children[0]
    assert node.label == "a"
    assert term_str(pair) == "f(a,b)"
