"""Ranked alphabets, finite ordered trees, positions and constraints.

Positions are tuples of 1-based child indices; the empty tuple is the
root.  In files and diagnostics a position prints as dot-separated
integers (``1.1``, ``2``) with ``e`` for the root, since juxtaposed
digits are ambiguous above rank 9.

Labels are plain strings.  Names matching ``x1, x2, ...`` are reserved
for substitution variables; whether another label is an alphabet symbol
or a nonterminal is decided by the surrounding grammar.

Only `term_str` recurses.  `fold` is the one bottom-up rebuild of a
whole tree: substitution, images, relabeling, normalization and ids.
"""

from __future__ import annotations

import itertools
import re
import threading
from operator import itemgetter

from .errors import InvalidPositionError, TreeError

Position = tuple

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'#\[\];.:*]*")
_VAR_RE = re.compile(r"x[1-9][0-9]*\Z")


def is_variable(label: str) -> bool:
    return bool(_VAR_RE.match(label))


def variable(i: int) -> str:
    return f"x{i}"


def valid_name(label: str) -> bool:
    return bool(NAME_RE.fullmatch(label))


def is_decimal(text: str) -> bool:
    """ASCII digits only; `str.isdigit` also takes `²` and `٤`."""
    return text.isascii() and text.isdigit()


class RankedAlphabet:
    """Finite map from symbol names to ranks."""

    __slots__ = ("_items", "_ranks")

    def __init__(self, symbols):
        items = tuple(sorted(dict(symbols).items()))
        for name, rank in items:
            if not valid_name(name) or is_variable(name):
                raise TreeError(f"bad symbol name {name!r}")
            if type(rank) is not int or rank < 0:  # a bool would not read back
                raise TreeError(f"bad rank for {name!r}")
        self._items = items
        self._ranks = dict(items)

    def rank(self, name: str) -> int:
        try:
            return self._ranks[name]
        except KeyError:
            raise TreeError(f"unknown symbol {name!r}") from None

    def symbols(self):
        return self._items

    def names(self):
        return tuple(name for name, _ in self._items)

    def max_rank(self) -> int:
        return max((rank for _, rank in self._items), default=0)

    def __contains__(self, name):
        return name in self._ranks

    def __iter__(self):
        return iter(self.names())

    def __len__(self):
        return len(self._items)

    def __eq__(self, other):
        return isinstance(other, RankedAlphabet) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inner = " ".join(f"{n}:{r}" for n, r in self._items)
        return f"<alphabet {inner}>"


class Tree:
    """An immutable ordered tree with cached hash, size and height.

    Equality is structural; the height convention is max |w| over
    positions, so a single node has height 0.
    """

    __slots__ = ("label", "children", "size", "height", "_hash")

    def __init__(self, label: str, children=()):
        self.label = label
        self.children = children = tuple(children)
        if not children:
            self.size = 1
            self.height = 0
            self._hash = hash((label, ()))
            return
        size = 1
        height = 0
        for c in children:
            size += c.size
            if c.height + 1 > height:
                height = c.height + 1
        self.size = size
        self.height = height
        self._hash = hash((label, tuple(c._hash for c in children)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if self._hash != other._hash or self.size != other.size:
            return False
        xs, ys = [self], [other]
        while xs:
            a, b = xs.pop(), ys.pop()
            if a is b:
                continue
            if (a.label != b.label
                    or len(a.children) != len(b.children)):
                return False
            xs.extend(a.children)
            ys.extend(b.children)
        return True

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, so the string hashes are this process's
        return Tree, (self.label, self.children)

    def __repr__(self):
        return f"Tree({term_str(self)!r})"


def leaf(label: str) -> Tree:
    return Tree(label)


def term_str(t: Tree) -> str:
    """t's text; a child that is its left neighbour is spelled once."""
    texts, last = [], None
    for c in t.children:  # a loop: one Python frame per level
        if c is not last:
            last, text = c, term_str(c) if c.children else c.label
        texts.append(text)
    return f"{t.label}({','.join(texts)})" if texts else t.label


def pos_str(w: Position) -> str:
    return "e" if not w else ".".join(str(i) for i in w)


def parse_pos(text: str) -> Position:
    if text == "e":
        return ()
    parts = text.split(".")
    try:
        w = tuple(map(int, parts))
    except ValueError:  # not a number, or more digits than `int` reads
        w = ()
    if not w or 0 in w or not all(map(is_decimal, parts)):
        raise InvalidPositionError(f"bad position {text!r}")
    return w


def walk(t: Tree):
    """(position, subtree) for every node of t in pre-order, depth-first
    and left to right, which is the lexicographic order of positions."""
    stack = [((), t)]
    while stack:
        w, node = stack.pop()
        yield w, node
        kids = node.children
        for i in range(len(kids), 0, -1):
            stack.append((w + (i,), kids[i - 1]))


def subtree_or_none(t: Tree, w: Position):
    node = t
    for i in w:
        if i < 1 or i > len(node.children):
            return None
        node = node.children[i - 1]
    return node


def subtree(t: Tree, w: Position) -> Tree:
    node = subtree_or_none(t, w)
    if node is None:
        raise InvalidPositionError(f"position {pos_str(w)} not in tree")
    return node


def replace(t: Tree, at: dict) -> Tree:
    """t with the subtree at each position w of `at` replaced by at[w].

    The positions must be pairwise incomparable.  Only the nodes on the
    paths from the root to the keys are rebuilt, bottom-up without
    recursion; every other subtree is shared with t.
    """
    for w, u in at.items():
        path = []
        node = t
        for i in w:
            if i < 1 or i > len(node.children):
                raise InvalidPositionError(
                    f"position {pos_str(w)} not in tree")
            path.append(node)
            node = node.children[i - 1]
        for node, i in zip(reversed(path), reversed(w)):
            children = list(node.children)
            children[i - 1] = u
            u = Tree(node.label, children)
        t = u
    return t


def fold(t: Tree, f, done: dict):
    """t's value, where a node's value is f(node, its children's values),
    computed once per distinct node object, children first, on a stack.

    `done` maps the ids of node objects already folded to their values;
    a caller that keeps it across calls keeps those nodes alive too.  A
    missing child value means "not folded yet", so f never returns None.
    """
    get = done.get
    value = get(id(t))
    if value is not None:
        return value
    stack = [t]
    while stack:
        node = stack[-1]
        values = tuple(map(get, map(id, node.children)))
        if None in values:
            stack.extend(c for c in node.children if get(id(c)) is None)
            continue
        stack.pop()
        if id(node) not in done:  # a shared node may be pushed twice
            done[id(node)] = f(node, values)
    return done[id(t)]


def substitute(t: Tree, theta: dict) -> Tree:
    """Simultaneous substitution by one `fold`: the leaves labelled in
    theta are replaced, other leaves kept and inner nodes rebuilt."""
    return fold(t, lambda node, kids: Tree(node.label, kids) if kids
                else theta.get(node.label, node), {})


def satisfies(t: Tree, constraint) -> bool:
    """True iff both positions exist in t and address equal subtrees."""
    v, w = constraint
    a = subtree_or_none(t, v)
    if a is None:
        return False
    b = subtree_or_none(t, w)
    return b is not None and a == b


def satisfies_all(t: Tree, constraints) -> bool:
    return all(satisfies(t, c) for c in constraints)


def dissatisfies_all(t: Tree, constraints) -> bool:
    """Every single pair dissatisfied; strictly stronger than not
    satisfying the whole set."""
    return all(not satisfies(t, c) for c in constraints)


def compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` positive
    ints, in lexicographic order of their parts - 1 cut points."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


# per alphabet, the trees of each size and their serialized forms
_ENUM_CACHE: dict[RankedAlphabet, tuple[list, list]] = {}
_ENUM_LOCK = threading.Lock()


def trees_of_size(alphabet: RankedAlphabet, size: int) -> tuple[Tree, ...]:
    """All trees over the alphabet with exactly `size` nodes, sorted by
    their serialized form.

    The buckets are cached per alphabet and shared: a tree of size n is
    built from the very objects of the smaller buckets, and its
    serialized form from theirs.  The lock keeps threads that extend one
    alphabet's lists from appending a bucket twice.
    """
    with _ENUM_LOCK:
        buckets, spelled = _ENUM_CACHE.setdefault(alphabet, ([()], [()]))
        while len(buckets) <= size:
            n = len(buckets)
            bucket = []
            for name, rank in alphabet.symbols():
                if rank == 0:
                    if n == 1:
                        bucket.append((name, Tree(name)))
                    continue
                for split in compositions(n - 1, rank):
                    bucket.extend(
                        (f"{name}({','.join(texts)})", Tree(name, combo))
                        for texts, combo in zip(
                            itertools.product(*(spelled[s] for s in split)),
                            itertools.product(*(buckets[s] for s in split))))
            bucket.sort(key=itemgetter(0))
            spelled.append(tuple(text for text, _ in bucket))
            buckets.append(tuple(tree for _, tree in bucket))
    return buckets[size]


def enumerate_trees(alphabet: RankedAlphabet, max_size: int):
    """All trees of size <= max_size, by size then serialized form."""
    for n in range(1, max_size + 1):
        yield from trees_of_size(alphabet, n)
