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
    is_variable,
    leaf,
    replace,
    substitute,
    term_str,
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
    """The induced image of t."""
    if t.label not in h.source:
        raise HomomorphismError(f"unknown symbol {t.label!r}")
    images = {variable(i + 1): apply(h, c)
              for i, c in enumerate(t.children)}
    return substitute(h.rhs[t.label], images)


def _match_rhs(pattern: Tree, u: Tree, bindings: dict) -> bool:
    if not pattern.children and is_variable(pattern.label):
        known = bindings.get(pattern.label)
        if known is None:
            bindings[pattern.label] = u
            return True
        return known == u
    if pattern.label != u.label or len(pattern.children) != len(u.children):
        return False
    return all(_match_rhs(pc, uc, bindings)
               for pc, uc in zip(pattern.children, u.children))


def preimage(h: TreeHom, u: Tree) -> list[Tree]:
    """The finite inverse image of u under a nondeleting and nonerasing
    homomorphism, via memoized top-down matching."""
    if not (h.nondeleting and h.nonerasing):
        raise HomomorphismError("preimage needs a nondeleting and "
                                "nonerasing homomorphism")
    memo: dict[Tree, tuple] = {}

    def pre(node: Tree) -> tuple:
        if node in memo:
            return memo[node]
        found = []
        for name, rank in h.source.symbols():
            bindings: dict = {}
            if not _match_rhs(h.rhs[name], node, bindings):
                continue
            pools = [pre(bindings[variable(i + 1)]) for i in range(rank)]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                found.append(Tree(name, combo))
        memo[node] = tuple(found)
        return memo[node]

    return sorted(pre(u), key=term_str)


def image_weight_oracle(h: TreeHom, g: Wtgc, u: Tree):
    """Sum of the grammar weights over the inverse image of u."""
    from .semantics import evaluate

    return g.semiring.sum(evaluate(g, t) for t in preimage(h, u))


def annotated_symbol(delta: str, pid: str) -> str:
    """Serialized form of a production-annotated symbol; the relabeling
    stage strips everything from the marker on."""
    return f"{delta}#{pid}"


def hom_image_stage_one(g: Wtgc, h: TreeHom) -> Wtgc:
    """The annotated intermediate grammar of the image construction.

    Symbols are the target alphabet plus one annotated copy per (symbol,
    production) pair.  Each input production turns into one production
    whose lhs is the annotated rhs of the homomorphism with the leftmost
    occurrence of each variable holding the corresponding nonterminal
    and duplicates held by the sink, equality-linked to the original.
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
    symbols = dict(h.target.symbols())
    for name, rank in h.target.symbols():
        for p in g.productions:
            symbols[annotated_symbol(name, g.prod_id(p))] = rank
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
        root = annotated_symbol(u.label, g.prod_id(p))
        productions.add(Production(Tree(root, body.children), p.target,
                                   p.weight, constraints))
    final = dict(g.final)
    final[bot] = s.zero
    return Wtgc(set(g.nonterminals) | {bot}, alphabet, final, productions, s)


def image_grammar(g: Wtgc, h: TreeHom) -> Wtgc:
    """An eq-restricted positive classic grammar generating the image of
    g under h, obtained by relabeling the annotated stage away."""
    stage_one = hom_image_stage_one(g, h)
    pi = {}
    for name, _ in stage_one.alphabet.symbols():
        pi[name] = name.split("#", 1)[0]
    return relabel(stage_one, pi, target_alphabet=h.target)
