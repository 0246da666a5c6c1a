"""Tree homomorphisms and the constrained encoding of their images.

A homomorphism is given per symbol by a right-hand side over variables
x1..xk.  Nondeleting and nonerasing homomorphisms are input finitary, so
`preimage` can enumerate the full inverse image of a tree; its summed
evaluation is the brute-force oracle against which `image_grammar` (the
two-stage annotate-then-relabel construction) is checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import HomomorphismError
from .grammar import Names, Production, Wtgc, classify, sink_productions
from .transforms import relabel
from .trees import (
    RankedAlphabet,
    Tree,
    fold,
    is_variable,
    leaf,
    replace,
    substitute,
    variable,
    walk,
)


@dataclass(frozen=True)
class TreeHom:
    """A per-symbol right-hand-side map inducing a tree-to-tree map."""

    source: RankedAlphabet
    target: RankedAlphabet
    rhs: dict

    def __post_init__(self):
        for name, rank in self.source.symbols():
            if name not in self.rhs:
                raise HomomorphismError(f"no image for {name!r}")
            _check_rhs(self.rhs[name], rank, self.target)

    @cached_property
    def nondeleting(self) -> bool:
        return all(
            {node.label for _, node in walk(self.rhs[name])
             if not node.children and is_variable(node.label)} ==
            {variable(i + 1) for i in range(rank)}
            for name, rank in self.source.symbols())

    @cached_property
    def nonerasing(self) -> bool:
        return all(not is_variable(self.rhs[name].label)
                   for name in self.source)


def _check_rhs(t: Tree, rank: int, target: RankedAlphabet):
    for _, node in walk(t):
        if not node.children and is_variable(node.label):
            index = node.label[1:]  # no leading zeros: longer is larger
            if len(index) > len(str(rank)) or int(index) > rank:
                raise HomomorphismError(f"variable {node.label} out of range")
        elif node.label not in target:
            raise HomomorphismError(
                f"undeclared target symbol {node.label!r}")
        elif target.rank(node.label) != len(node.children):
            raise HomomorphismError(f"arity mismatch at {node.label!r}")


def relabeling_hom(source: RankedAlphabet, pi: dict,
                   target: RankedAlphabet) -> TreeHom:
    """The homomorphism renaming each symbol by pi; symbols outside pi
    keep their name."""
    rhs = {name: Tree(pi.get(name, name),
                      [leaf(variable(i + 1)) for i in range(rank)])
           for name, rank in source.symbols()}
    return TreeHom(source, target, rhs)


def apply(h: TreeHom, t: Tree) -> Tree:
    """The induced image of t, built by one `fold`."""
    def image(node: Tree, kids: tuple) -> Tree:
        if node.label not in h.source:
            raise HomomorphismError(f"unknown symbol {node.label!r}")
        if h.source.rank(node.label) != len(kids):
            raise HomomorphismError(f"arity mismatch at {node.label!r}")
        return substitute(h.rhs[node.label],
                          {variable(i + 1): c for i, c in enumerate(kids)})

    return fold(t, image, {})


def _match_rhs(pattern: Tree, u: Tree) -> dict | None:
    """The variable bindings under which `pattern` spells u, or None."""
    bindings: dict = {}
    stack = [(pattern, u)]
    while stack:
        p, v = stack.pop()
        if not p.children and is_variable(p.label):
            if bindings.setdefault(p.label, v) != v:
                return None
        elif p.label != v.label or len(p.children) != len(v.children):
            return None
        else:
            stack.extend(zip(p.children, v.children))
    return bindings


def preimage(h: TreeHom, u: Tree) -> list[Tree]:
    """The finite inverse image of u under a nondeleting and nonerasing
    homomorphism, in the order it is built: the subtrees that variables
    bind are found top down, and since a variable of a nonerasing rhs
    binds a proper subtree, their preimages are built smallest first."""
    if not (h.nondeleting and h.nonerasing):
        raise HomomorphismError("preimage needs a nondeleting and "
                                "nonerasing homomorphism")
    matches: dict[Tree, list] = {}  # subtree -> [(symbol, bound subtrees)]
    stack = [u]
    while stack:
        node = stack.pop()
        if node in matches:
            continue
        found = matches[node] = []
        for name, rank in h.source.symbols():
            bindings = _match_rhs(h.rhs[name], node)
            if bindings is not None:
                bound = [bindings[variable(i + 1)] for i in range(rank)]
                found.append((name, bound))
                stack.extend(bound)
    pre: dict[Tree, list] = {}
    for node in sorted(matches, key=lambda tree: tree.size):
        pre[node] = [Tree(name, combo) for name, bound in matches[node]
                     for combo in itertools.product(*(pre[b] for b in bound))]
    return pre[u]


def image_weight_oracle(h: TreeHom, g: Wtgc, u: Tree):
    """Sum of the grammar weights over the inverse image of u."""
    from .semantics import evaluate

    return g.semiring.sum(evaluate(g, t) for t in preimage(h, u))


def annotated_symbols(g: Wtgc, h: TreeHom) -> dict:
    """The production-annotated symbols of the image construction by
    (target symbol, production id): `delta#pid`, primed until it avoids
    the target's symbols, g's nonterminals and the other annotations."""
    names = Names(set(h.target.names()) | set(g.nonterminals), "#".join)
    return {key: names[key] for key in itertools.product(
        h.target.names(), map(g.prod_id, g.productions))}


def hom_image_stage_one(g: Wtgc, h: TreeHom) -> Wtgc:
    """The annotated intermediate grammar of the image construction.

    Symbols are the target alphabet plus one annotated copy per (symbol,
    production) pair, named by `annotated_symbols`.  Each input
    production turns into one production whose lhs is the annotated rhs
    of the homomorphism with the leftmost occurrence of each variable
    holding the corresponding nonterminal and duplicates held by the
    sink, equality-linked to the original.
    Every tree accepted by a non-sink nonterminal here has exactly one
    derivation.
    """
    cls = classify(g)
    if not (cls.normalized and cls.unconstrained):
        raise HomomorphismError("image construction needs an unconstrained "
                                "WTA (normalize first)")
    if not (h.nondeleting and h.nonerasing):
        raise HomomorphismError("image construction needs a nondeleting and "
                                "nonerasing homomorphism")
    if h.source != g.alphabet:
        raise HomomorphismError("homomorphism source alphabet mismatch")
    s = g.semiring
    annotated = annotated_symbols(g, h)
    symbols = dict(h.target.symbols())
    for (delta, _), name in annotated.items():
        symbols[name] = h.target.rank(delta)
    alphabet = RankedAlphabet(symbols)
    bot = Names(set(g.nonterminals) | set(alphabet.names()))["bot"]

    productions = sink_productions(alphabet, bot, s.one)
    for p in g.productions:
        dec = g.decompose(p)
        u = h.rhs[p.lhs.label]
        occurrences: dict[str, list] = {}  # in lexicographic order
        for w, node in walk(u):
            if is_variable(node.label):
                occurrences.setdefault(node.label, []).append(w)
        constraints = set()
        assignment = {}
        for i, state in enumerate(dec.states, start=1):
            occ = occurrences[variable(i)]
            assignment[occ[0]] = leaf(state)
            for w in occ[1:]:
                assignment[w] = leaf(bot)
            constraints.update(itertools.combinations(occ, 2))
        body = replace(u, assignment)
        root = annotated[u.label, g.prod_id(p)]
        productions.add(Production(Tree(root, body.children), p.target,
                                   p.weight, constraints))
    final = dict(g.final)
    final[bot] = s.zero
    return Wtgc(set(g.nonterminals) | {bot}, alphabet, final, productions, s)


def image_grammar(g: Wtgc, h: TreeHom) -> Wtgc:
    """An eq-restricted positive classic grammar generating the image of
    g under h, obtained by relabeling the annotated stage away: each
    annotated symbol back to the target symbol it was named for."""
    stage_one = hom_image_stage_one(g, h)
    pi = {name: name for name in h.target}
    for (delta, _), name in annotated_symbols(g, h).items():
        pi[name] = delta
    return relabel(stage_one, pi, target_alphabet=h.target)
