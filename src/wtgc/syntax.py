"""Parsing and canonical serialization of grammars, trees and
homomorphisms.

Grammar files are line oriented with `#` comments:

    semiring arctic
    alphabet alpha:0 gamma:1 sigma:2
    nonterminals q q'
    final q' = 0                  # omitted nonterminals get the zero
    prod alpha -> q @ 0
    prod sigma(gamma(q),q) -> q' [eq 1.1=2] @ 1

Serialization is canonical (sorted sections, productions sorted by their
serialized form) and `parse(serialize(g)) == g` holds bit-exactly.
"""

from __future__ import annotations

import re
from functools import cache

from .errors import GrammarError, InvalidPositionError, ParseError, WtgcError
from .grammar import Production, Wtgc
from .homomorphism import TreeHom
from .semiring import Semiring, semiring_from_name
from .trees import (
    NAME_RE,
    RankedAlphabet,
    Tree,
    is_decimal,
    is_variable,
    parse_pos,
    term_str,
    walk,
)

# names and punctuation; what they leave of a term is spaces and bad
# characters
_TOKENS_RE = re.compile(rf"{NAME_RE.pattern}|[(),]")
_PUNCTUATION = frozenset("(),")


def parse_term(text: str, alphabet: RankedAlphabet | None = None,
               nonterminals=(), allow_variables: bool = False,
               line: int | None = None) -> Tree:
    """Parse `sigma(gamma(alpha),alpha)`-style terms.

    With an alphabet given, symbol arities are enforced; names that are
    neither symbols nor nonterminals must be variables when those are
    allowed, and are rejected otherwise.

    Nothing recurses: open nodes wait on an explicit stack, so any depth
    parses.  Equal subtrees come back as one shared object, built and
    checked once per distinct (label, children); a right sibling spelled
    like its left neighbour is that node, found by comparing the two
    spans up to their first difference, O(n log n) characters in all.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(
        ",", " , ").split()  # what `_TOKENS_RE` finds when all runs are names
    if not all(map(NAME_RE.fullmatch, set(tokens) - _PUNCTUATION)):
        bad = _TOKENS_RE.sub("", text).split()[0][0]
        raise ParseError(f"unexpected character {bad!r}", line)
    tokens.append("")  # end marker; no token is empty now
    ranks = {} if alphabet is None else alphabet._ranks
    shared: dict = {}  # (label, ids of the shared children) -> its Tree
    stack: list = []   # (label, children so far, its offset) per open node
    pos, char, view = 0, 0, None  # char: offset in the tokens joined by " "
    while True:
        label = tokens[pos]
        pos += 1
        char += len(label) + 1
        if not label:
            raise ParseError("unexpected end of term", line)
        if label in _PUNCTUATION:
            raise ParseError(f"expected a name, found {label!r}", line)
        if tokens[pos] == "(":
            pos += 1
            stack.append((label, [], char - len(label) - 1))
            char += 2
            continue
        children = ()
        while True:  # finish this node, then every parent it closes
            key = (label, tuple(map(id, children)))
            node = shared.get(key)
            if node is None:
                rank = ranks.get(label)
                if rank is not None:
                    if rank != len(children):
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
            stack[-1][1].append(node)
            tok = tokens[pos]
            pos += 1
            char += 2  # tok is one character, or an error below
            # node is view[start:char - 2]; is the next sibling the same?
            while tok == "," and children and tokens[pos] == label:
                if view is None:
                    view = memoryview(" ".join(tokens).encode())
                if view[start:char - 2] != view[char:2 * char - 2 - start]:
                    break
                stack[-1][1].append(node)
                pos += view.obj.count(b" ", start, char)
                start, char = char, 2 * char - start
                tok = tokens[pos - 1]
            if tok == ",":
                break
            if tok != ")":
                raise ParseError(f"expected ')', found {tok!r}" if tok
                                 else "unexpected end of term", line)
            label, children, start = stack.pop()


_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#")
_BLOCK_RE = re.compile(r"\[\s*(eq|ne)\s+([^]]*)\]")


def _parse_pairs(body: str, line: int, position):
    """The pairs of a constraint block, read with `position(text)`."""
    pairs = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"bad constraint {chunk!r}", line)
        left, right = chunk.split("=", 1)
        try:
            pairs.append((position(left.strip()), position(right.strip())))
        except InvalidPositionError:
            raise ParseError(f"bad constraint {chunk!r}", line) from None
    return pairs


def content_lines(text: str):
    """(line number, content) for every line that holds more than a
    comment: a comment runs from a `#` at the line's start or after
    whitespace (not inside a name such as `q#p1`) to the line's end,
    and the content is the rest, stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = _COMMENT_RE.split(raw, 1)[0]
        content = raw.strip()
        if content:
            yield lineno, content


def parse_grammar(text: str) -> Wtgc:
    semiring: Semiring | None = None
    alphabet_items: dict[str, int] = {}
    nonterminals: list[str] = []
    finals: list[tuple[str, str, int]] = []
    prod_lines: list[tuple[str, int]] = []

    for lineno, content in content_lines(text):
        keyword, _, rest = content.partition(" ")
        rest = rest.strip()
        if keyword == "semiring":
            if semiring is not None:
                raise ParseError("duplicate semiring line", lineno)
            try:
                semiring = semiring_from_name(rest)
            except Exception as exc:
                raise ParseError(str(exc), lineno) from None
        elif keyword == "alphabet":
            for entry in rest.split():
                if ":" not in entry:
                    raise ParseError(f"bad alphabet entry {entry!r}", lineno)
                name, rank = entry.rsplit(":", 1)
                if not is_decimal(rank):
                    raise ParseError(f"bad alphabet entry {entry!r}", lineno)
                if name in alphabet_items:
                    raise ParseError(f"duplicate alphabet symbol {name!r}",
                                     lineno)
                try:
                    alphabet_items[name] = int(rank)
                except ValueError:  # more digits than `int` reads
                    raise ParseError("rank too long", lineno) from None
        elif keyword == "nonterminals":
            nonterminals.extend(rest.split())
        elif keyword == "final":
            if "=" not in rest:
                raise ParseError("bad final line", lineno)
            name, literal = rest.split("=", 1)
            finals.append((name.strip(), literal.strip(), lineno))
        elif keyword == "prod":
            prod_lines.append((rest, lineno))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if semiring is None:
        raise ParseError("missing semiring line")
    try:
        alphabet = RankedAlphabet(alphabet_items)
    except Exception as exc:
        raise ParseError(str(exc)) from None

    declared = frozenset(nonterminals)
    final = {}
    for name, literal, lineno in finals:
        if name not in declared:
            raise ParseError(f"final weight for unknown nonterminal {name!r}",
                             lineno)
        if name in final:
            raise ParseError(f"duplicate final weight for {name!r}", lineno)
        try:
            final[name] = semiring.parse(literal)
        except Exception as exc:
            raise ParseError(str(exc), lineno) from None

    productions = []
    # each distinct position, lhs and weight text is parsed once
    position, terms, weights = cache(parse_pos), {}, {}
    for body, lineno in prod_lines:
        lhs_text, arrow, rest = body.partition("->")
        if not arrow:
            raise ParseError("production needs `->`", lineno)
        lhs = terms.get(lhs_text)
        if lhs is None:
            lhs = terms[lhs_text] = parse_term(lhs_text.strip(), alphabet,
                                               declared, line=lineno)
        head, at, weight_text = rest.rpartition("@")
        if not at:
            raise ParseError("production needs a weight (`@ w`)", lineno)
        weight = weights.get(weight_text)
        if weight is None:
            try:
                weight = weights[weight_text] = semiring.parse(
                    weight_text.strip())
            except Exception as exc:
                raise ParseError(str(exc), lineno) from None
        eq, ineq = [], []
        blocks = _BLOCK_RE.findall(head) if "[" in head else ()
        target_text = (_BLOCK_RE.sub("", head) if blocks else head).strip()
        if not NAME_RE.fullmatch(target_text):
            raise ParseError(f"bad target {target_text!r}", lineno)
        for tag, inner in blocks:
            (eq if tag == "eq" else ineq).extend(
                _parse_pairs(inner, lineno, position))
        productions.append(Production(lhs, target_text, weight, eq, ineq))

    try:
        return Wtgc(nonterminals, alphabet, final, productions, semiring)
    except Exception as exc:
        raise ParseError(str(exc)) from None


def serialize_grammar(g: Wtgc) -> str:
    """The text `parse_grammar` reads back as g, else `GrammarError`."""
    try:
        known = semiring_from_name(g.semiring.name) == g.semiring
    except WtgcError:
        known = False
    if not known:
        raise GrammarError(f"semiring {g.semiring.name!r} would not read back")
    lines = [f"semiring {g.semiring.name}"]
    lines.append("alphabet " + " ".join(f"{n}:{r}"
                                        for n, r in g.alphabet.symbols()))
    if g.nonterminals:
        lines.append("nonterminals " + " ".join(sorted(g.nonterminals)))
    for q in sorted(g.nonterminals):
        if g.final[q] != g.semiring.zero:
            lines.append(f"final {q} = {g.semiring.format(g.final[q])}")
    lines += ["prod " + text for text in g.spellings]
    return "\n".join(lines) + "\n"


def parse_hom(text: str, source: RankedAlphabet | None = None) -> TreeHom:
    """Parse a homomorphism file: a `hom` header, then one
    `symbol -> term-over-x1..xk` line per source symbol."""
    rules: dict[str, Tree] = {}
    saw_header = False
    for lineno, content in content_lines(text):
        if not saw_header:
            if content != "hom":
                raise ParseError("homomorphism files start with `hom`",
                                 lineno)
            saw_header = True
            continue
        name, arrow, rhs = content.partition("->")
        if not arrow:
            raise ParseError("homomorphism rule needs `->`", lineno)
        name = name.strip()
        if not NAME_RE.fullmatch(name) or is_variable(name):
            raise ParseError(f"bad source symbol {name!r}", lineno)
        if name in rules:
            raise ParseError(f"duplicate rule for {name!r}", lineno)
        rules[name] = parse_term(rhs.strip(), allow_variables=True,
                                 line=lineno)
    if not saw_header:
        raise ParseError("homomorphism files start with `hom`")
    # a source symbol's rank is its highest variable index
    source_ranks: dict[str, int] = {}
    target_ranks: dict[str, int] = {}
    for name, rhs in rules.items():
        source_ranks[name] = 0
        for _, node in walk(rhs):
            arity = len(node.children)
            if not arity and is_variable(node.label):
                try:
                    index = int(node.label[1:])
                except ValueError:  # more digits than `int` reads
                    raise ParseError(f"too many digits in {name!r}") from None
                source_ranks[name] = max(source_ranks[name], index)
            elif target_ranks.setdefault(node.label, arity) != arity:
                raise ParseError(f"inconsistent rank for {node.label!r}")
    if source is None:
        source = RankedAlphabet(source_ranks)
    target = RankedAlphabet(target_ranks)
    try:
        return TreeHom(source, target, rules)
    except Exception as exc:
        raise ParseError(str(exc)) from None


def serialize_hom(h: TreeHom) -> str:
    lines = ["hom"]
    for name in h.source:
        lines.append(f"{name} -> {term_str(h.rhs[name])}")
    return "\n".join(lines) + "\n"
