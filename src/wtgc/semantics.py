"""Both semantics of a WTGc, computed on one weight map per grammar.

The weight map (`WeightMap`, built on first use and kept on the grammar)
gives every distinct subtree it meets a canonical id from its label and
its children's ids, so structurally equal subtrees share one id however
they are shared in memory (hash-consing).  Trees are interned by
`trees.fold`, children first and each distinct node object once: deep
trees need no recursion, and DAG-shaped inputs cost only their distinct
objects.  Per id the map stores the sparse vector of nonzero state
weights, the initial-algebra weight map, with equal vectors stored once.

Each left-hand side is compiled once from the decomposition the grammar
keeps (`Wtgc.decompose`, in the paper's 1-based positions) into flat
position checks, indexed by root label and arity and then by its first
nonterminal leaf, so a node only tries the productions whose first leaf
has a nonzero weight there.
Constraint pairs compare ids.  Where no production of a label looks
below the children or carries constraints, a node's vector depends on
its children's vectors alone and is memoized on them.

`evaluate` and `state_weight` read the vector of the root
(`WeightMap.vector`); the root object itself is not remembered.
`decision.enumerate_support` weighs one representative tree per origin
of a class of equal vectors through the same method, and weighs every
tree only for grammars where a vector may depend on more than the
children's vectors and their equalities.

`derivations` enumerates the complete left-most derivations with the
same compiled matcher and ids.  Counting walks the (nonterminal, id)
pairs depth first and pushes each pair once: its options are computed
when it is pushed and memoized with their counts, productions and
children's keys and relative positions.  A derivation is then spelled
out with one stack entry per step, each relative to its parent step, so
one derivation is linear in size and every sub-derivation is one block.
`block_starts` is the one reader of that nesting (where each step's block
starts; `child_roots` finds its child blocks from there), and only
`absolute_steps` spells positions.  Over a zero-sum free, zero-divisor
free semiring a zero weight already rules a derivation out.  Summing
derivation weights must agree with the weight map, which the test suite
uses as the master oracle.

`replay_derivation` checks a derivation without the weight map and
without building trees: each step must match the input where it sits
and absorb, as its lhs's nonterminal leaves, the blocks just before it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain

from .errors import GrammarError
from .grammar import DecomposedLhs, Production, Wtgc
from .trees import (
    Position,
    Tree,
    dissatisfies_all,
    enumerate_trees,
    fold,
    leaf,
    satisfies_all,
    subtree,
    subtree_or_none,
)


@dataclass(frozen=True)
class Derivation:
    """Left-most (production, slot, children) steps for a fixed input tree.

    A step's slot is the position, in its parent step's lhs, of the leaf
    it rewrites (`()` at the root); `children` counts the blocks of steps,
    one per nonterminal leaf of the lhs, that end just before it.  The
    input tree is part of the identity: constraints are checked on
    subtrees of the original input, so the same step list is meaningless
    for any other tree.
    """

    steps: tuple
    input: Tree
    target: str | None

    def __len__(self):
        return len(self.steps)


# -- compiled left-hand sides ---------------------------------------------


class _Plan:
    """One production's left-hand side compiled into flat position checks.

    The plan reads the decomposition `dec` of the lhs, in 1-based
    positions.  The root label and arity are the key the plan is indexed
    by.  `checks` holds (position, label, arity) for every other lhs node
    below the root in pre-order; `states` and `positions` describe the
    nonterminal leaves left to right; `eq` and `ne` are the sorted
    constraint pairs.  `guarded` is false when there is nothing to check
    beyond the root, `flat` when the lhs is normalized (no checks: every
    child of the root is a nonterminal leaf), and `rest` pairs every leaf
    after the first with its position, or with its 0-based child index
    when `flat`.
    """

    __slots__ = ("production", "target", "weight", "checks", "states",
                 "positions", "eq", "ne", "guarded", "flat", "rest")

    def __init__(self, p: Production, dec: DecomposedLhs):
        self.production = p
        self.target = p.target
        self.weight = p.weight
        self.checks = dec.checks
        self.states = dec.states
        self.positions = dec.positions
        self.flat = not dec.checks
        self.eq = tuple(sorted(p.eq))
        self.ne = tuple(sorted(p.ineq))
        self.guarded = bool(dec.checks or self.eq or self.ne)
        self.rest = tuple(zip(dec.states[1:], (
            w[0] - 1 if self.flat else w for w in dec.positions[1:])))


class _Bucket:
    """The compiled productions sharing one root label and arity.

    `stateless` and `by_first` index the plans for the weight map: a plan
    with nonterminal leaves can only contribute where its first leaf has
    a nonzero weight, so it is found from that leaf's position (with the
    0-based child index when the position has length one) and state.
    `by_target` keeps production order for derivation enumeration.  A
    bucket is `plain` when no plan looks past the children or checks
    constraints; a node's vector then depends on its children's vectors
    alone, and `memo` maps the identities of those vectors to it.
    """

    __slots__ = ("stateless", "by_first", "by_target", "plain", "memo")

    def __init__(self, plans):
        self.plain = not any(plan.guarded for plan in plans)
        self.memo: dict = {}
        self.stateless = []
        by_first: dict = {}
        self.by_target: dict = {}
        for plan in plans:
            self.by_target.setdefault(plan.target, []).append(plan)
            if plan.states:
                by_first.setdefault(plan.positions[0], {}).setdefault(
                    plan.states[0], []).append(plan)
            else:
                self.stateless.append(plan)
        self.by_first = tuple(
            (w, w[0] - 1 if len(w) == 1 else None, by_state)
            for w, by_state in by_first.items())


# the memo entry of a (nonterminal, id) pair without derivations
_UNDERIVABLE = (0, ())


def _at(keys, ch, me, w):
    """The id at position w below a node with child ids `ch` and id
    `me`, or None if w leaves the tree."""
    if not w:
        return me
    i = w[0]
    if i > len(ch):
        return None
    c = ch[i - 1]
    for i in w[1:]:
        kids = keys[c][1]
        if i > len(kids):
            return None
        c = kids[i - 1]
    return c


def _child_pairs(options) -> list:
    """The (state, id) pairs of the options' nonterminal leaves."""
    return [sub for _, children in options for sub, _ in children]


class WeightMap:
    """Canonical subtree ids, their weight vectors and derivation counts
    for one grammar.

    Ids are assigned in post-order, so children always have smaller ids
    than their parents.  `keys[i]` is the (label, child ids) pair of id
    i and `vectors[i]` its nonzero state weights as (state, weight)
    pairs.  Node objects already walked are remembered by identity (and
    kept alive, so identities stay valid).  The map holds no reference
    to its grammar, only to its table of decompositions.  The public
    methods take a lock, so one grammar can be shared between threads.
    """

    __slots__ = ("semiring", "nonterminals", "finals", "_groups", "_heads",
                 "_decompositions", "_exact", "_buckets", "_ids", "keys",
                 "vectors", "_seen", "_alive", "_alts", "_distinct", "_lock")

    def __init__(self, g: Wtgc):
        self.semiring = g.semiring
        self.nonterminals = g.nonterminals
        self.finals = tuple((q, g.final[q]) for q in g.final_support())
        groups: dict = {}
        for p in g.productions:
            groups.setdefault((p.lhs.label, len(p.lhs.children)), []).append(p)
            g.decompose(p)  # filed in the table the plans read
        self._groups = groups
        self._decompositions = g._decompositions
        self._heads = {(p.lhs.label, len(p.lhs.children), p.target)
                       for p in g.productions}
        # Over a zero-sum free and zero-divisor free semiring a state
        # weight is nonzero exactly where a derivation exists (`validate`
        # rejects zero-weight productions), so the vectors rule out
        # derivations.
        s = g.semiring
        self._exact = s.zero_sum_free and s.zero_divisor_free
        self._buckets: dict = {}
        self._ids: dict = {}
        self.keys: list = []
        self.vectors: list = []
        self._seen: dict = {}
        self._alive: list = []
        self._alts: dict = {}
        self._distinct: dict = {}
        self._lock = threading.Lock()

    # -- ids ----------------------------------------------------------------

    def _bucket(self, label, arity):
        bucket = self._buckets.get((label, arity))
        if bucket is None:
            bucket = _Bucket([_Plan(p, self._decompositions[p])
                              for p in self._groups.get((label, arity), ())])
            self._buckets[(label, arity)] = bucket
        return bucket

    def _cid(self, t: Tree) -> int:
        """The canonical id of t, interning every node object below it
        that was not walked before."""
        return fold(t, self._intern, self._seen)

    def _intern(self, node: Tree, ch: tuple) -> int:
        self._alive.append(node)
        key = (node.label, ch)
        c = self._ids.get(key)
        if c is None:
            c = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.vectors.append(
                self._vector(self._bucket(node.label, len(ch)), ch, c))
        return c

    # -- weights --------------------------------------------------------------

    def _fits(self, plan: _Plan, ch, me) -> bool:
        """Shape checks below the root and the constraint pairs."""
        keys = self.keys
        for w, label, arity in plan.checks:
            # never None: in pre-order each arity is checked before its kids
            key = keys[_at(keys, ch, me, w)]
            if key[0] != label or len(key[1]) != arity:
                return False
        for v, w in plan.eq:
            a = _at(keys, ch, me, v)
            if a is None or a != _at(keys, ch, me, w):
                return False
        for v, w in plan.ne:
            a = _at(keys, ch, me, v)
            if a is not None and a == _at(keys, ch, me, w):
                return False
        return True

    def _vector(self, bucket: _Bucket, ch, me) -> tuple:
        """The nonzero state weights of a node with child ids `ch` and
        id `me` whose root label and arity select `bucket`.

        Equal vectors are stored once, so in a plain bucket the vector
        is memoized on the identities of the children's vectors.
        """
        if not bucket.plain:
            return self._distinct_vector(self._weigh(bucket, ch, me))
        key = tuple(map(id, map(self.vectors.__getitem__, ch)))
        vec = bucket.memo.get(key)
        if vec is None:
            vec = bucket.memo[key] = self._distinct_vector(
                self._weigh(bucket, ch, me))
        return vec

    def _distinct_vector(self, vec: tuple) -> tuple:
        """The stored vector equal to vec, weight types included; vec
        itself when its weights are not hashable."""
        try:
            other = self._distinct.setdefault(vec, vec)
        except TypeError:
            return vec
        if other is not vec and any(type(a[1]) is not type(b[1])
                                    for a, b in zip(vec, other)):
            return vec
        return other

    def _weigh(self, bucket: _Bucket, ch, me) -> tuple:
        """Sum, per target, the weights of the bucket's plans that fit."""
        s = self.semiring
        zero, add, mul = s.zero, s.add, s.mul
        keys, vectors = self.keys, self.vectors
        acc: dict = {}
        for plan in bucket.stateless:
            if not plan.guarded or self._fits(plan, ch, me):
                q = plan.target
                acc[q] = add(acc[q], plan.weight) if q in acc else plan.weight
        for first, i, by_state in bucket.by_first:
            if i is not None:
                c = ch[i]
            else:
                c = _at(keys, ch, me, first)
                if c is None:
                    continue
            for state, x in vectors[c]:
                plans = by_state.get(state)
                if plans is None:
                    continue
                for plan in plans:
                    if plan.guarded and not self._fits(plan, ch, me):
                        continue
                    weight = mul(plan.weight, x)
                    flat = plan.flat
                    for q, at in plan.rest:
                        if weight == zero:
                            break
                        sub = ch[at] if flat else _at(keys, ch, me, at)
                        for r, y in vectors[sub]:
                            if r == q:
                                weight = mul(weight, y)
                                break
                        else:
                            weight = zero
                    if weight != zero:
                        q = plan.target
                        acc[q] = add(acc[q], weight) if q in acc else weight
        return tuple((q, w) for q, w in acc.items() if w != zero)

    def _root_vector(self, t: Tree) -> tuple:
        """The nonzero state weights of t.  A root met only as a root is
        stored only where recomputing its vector takes more than a
        lookup of its children's vectors."""
        seen = self._seen
        c = seen.get(id(t))
        if c is not None:
            return self.vectors[c]
        ch = tuple(map(seen.get, map(id, t.children)))
        if None in ch:
            ch = tuple(map(self._cid, t.children))
        bucket = (self._buckets.get((t.label, len(ch)))
                  or self._bucket(t.label, len(ch)))
        if not bucket.plain:
            return self.vectors[self._cid(t)]
        vec = bucket.memo.get(tuple(map(id, map(self.vectors.__getitem__,
                                                ch))))
        return self._vector(bucket, ch, None) if vec is None else vec

    def _declared(self, q: str):
        if q not in self.nonterminals:
            raise GrammarError(f"undeclared nonterminal {q!r}")

    def vector(self, t: Tree) -> tuple:
        """The nonzero state weights of t as (state, weight) pairs."""
        with self._lock:
            return self._root_vector(t)

    def state_weight(self, q: str, t: Tree):
        self._declared(q)
        for r, x in self.vector(t):
            if r == q:
                return x
        return self.semiring.zero

    def total(self, vec: tuple):
        """The final weighting of a vector: the sum of F_q * wt_q."""
        s = self.semiring
        total = s.zero
        for q, f in self.finals:
            for r, x in vec:
                if r == q:
                    total = s.add(total, s.mul(f, x))
                    break
        return total

    def evaluate(self, t: Tree):
        return self.total(self.vector(t))

    # -- derivations ------------------------------------------------------------

    def _options(self, q, c):
        """The productions for q that fit id c, in order, each with the
        ((state, id), relative position) of its nonterminal leaves."""
        keys = self.keys
        label, ch = keys[c]
        plans = self._bucket(label, len(ch)).by_target.get(q, ())
        out = []
        for plan in plans:
            if plan.guarded and not self._fits(plan, ch, c):
                continue
            ids = ch if plan.flat else [_at(keys, ch, c, w)
                                        for w in plan.positions]
            out.append((plan.production,
                        tuple(zip(zip(plan.states, ids), plan.positions))))
        return out

    def derivation_count(self, q: str, t: Tree) -> int:
        self._declared(q)
        if (t.label, len(t.children), q) not in self._heads:
            return 0
        with self._lock:
            return self._count(q, self._cid(t))

    def derivation_steps(self, q: str, t: Tree) -> list:
        """The step lists of all derivations of t to q."""
        self._declared(q)
        if (t.label, len(t.children), q) not in self._heads:
            return []
        with self._lock:
            c = self._cid(t)
            n = self._count(q, c)
            return [self._steps(q, c, i) for i in range(n)] if n else []

    def _count(self, q: str, c: int) -> int:
        """The number of complete left-most derivations of id c to q,
        memoizing each (state, id) reached as (count, production,
        children) alternatives.

        The walk is depth first.  A pair's options are computed when it
        is pushed, and ride on the stack with the list of its child pairs
        still to look at; one missing child is pushed at a time.  Child
        pairs have smaller ids, so a pair missing from the memo is never
        on the stack already: each (state, id) is pushed, and its options
        computed, once, even where the input shares subtrees.
        """
        alts = self._alts
        found = alts.get((q, c))
        if found is not None:
            return found[0]
        if self._underivable(q, c):
            return 0
        underivable, options_of = self._underivable, self._options
        options = options_of(q, c)
        stack = [((q, c), options, _child_pairs(options))]
        while stack:
            key, options, subs = stack[-1]
            while subs:
                sub = subs.pop()
                if sub in alts:
                    continue
                if underivable(*sub):
                    alts[sub] = _UNDERIVABLE
                    continue
                sub_options = options_of(*sub)
                stack.append((sub, sub_options, _child_pairs(sub_options)))
                break
            else:
                stack.pop()
                kept, total = [], 0
                for p, children in options:
                    n = 1
                    for sub, _ in children:
                        n *= alts[sub][0]
                    if n:
                        kept.append((n, p, children))
                        total += n
                alts[key] = ((total, tuple(kept)) if total
                             else _UNDERIVABLE)
        return alts[(q, c)][0]

    def _underivable(self, q: str, c: int) -> bool:
        """True when the weight vector of c proves it has no derivation
        to q."""
        if not self._exact:
            return False
        for r, _ in self.vectors[c]:
            if r == q:
                return False
        return True

    def _steps(self, q: str, c: int, index: int) -> tuple:
        """The steps of derivation number `index` (in production order,
        then the first child's alternatives slowest) of id c to q.

        The walk visits each step's node before its children, right to
        left; reversed, that is the left-most order.
        """
        alts = self._alts
        out = []
        stack = [((q, c), (), index)]
        push = stack.append
        while stack:
            key, pos, i = stack.pop()
            options = alts[key][1]
            if not i:
                _, p, children = options[0]
                out.append((p, pos, len(children)))
                for sub, slot in children:
                    push((sub, slot, 0))
                continue
            for n, p, children in options:
                if i < n:
                    break
                i -= n
            out.append((p, pos, len(children)))
            later = []
            for sub, slot in reversed(children):
                i, r = divmod(i, alts[sub][0])
                later.append((sub, slot, r))
            stack.extend(reversed(later))
        out.reverse()
        return tuple(out)


def weight_map(g: Wtgc) -> WeightMap:
    """The grammar's weight map, built on first use."""
    m = g._weights
    if m is None:
        m = g._weights = WeightMap(g)
    return m


def derivations(g: Wtgc, t: Tree, q: str) -> list[Derivation]:
    """All complete left-most derivations of g for t to q."""
    return [Derivation(steps, t, q)
            for steps in weight_map(g).derivation_steps(q, t)]


def derivation_weight(g: Wtgc, d: Derivation):
    """Product of the step weights in the grammar's semiring."""
    s = g.semiring
    total = s.one
    for p, _, _ in d.steps:
        g.prod_id(p)  # raises on foreign productions
        total = s.mul(total, p.weight)
    return total


def block_starts(steps) -> list:
    """The one reader of step nesting: for each step k, the index where
    its block `steps[start:k + 1]` starts.  The block is the step after
    the blocks it absorbs: its `children` blocks just before it, or all
    the steps before it when they hold fewer blocks."""
    starts = []
    for k, (_, _, n) in enumerate(steps):
        j = k - 1
        while n and j >= 0:
            j, n = starts[j] - 1, n - 1
        starts.append(j + 1)
    return starts


def child_roots(starts: list, k: int) -> list:
    """The root steps of step k's child blocks, left to right; `starts`
    is the `block_starts` of the steps."""
    kids, j = [], k - 1
    while j >= starts[k]:
        kids.append(j)
        j = starts[j] - 1
    return kids[::-1]


def step_path(d: Derivation, starts: list, w: Position) -> tuple:
    """The walk from the root step of d towards position w along child
    slots: (levels, k, rest), where `levels` holds (subtree, step, its
    child roots, index of the child towards w) for each step passed, and
    step k sits at w, or w lies at `rest`, not empty, inside k's lhs."""
    steps, node = d.steps, d.input
    levels, k = [], len(steps) - 1
    while w:
        kids = child_roots(starts, k)
        for j, c in enumerate(kids):
            v = steps[c][1]
            if w[:len(v)] == v:
                break
        else:
            break
        levels.append((node, k, kids, j))
        node, k, w = subtree(node, v), c, w[len(v):]
    return levels, k, w


def absolute_steps(d: Derivation) -> tuple:
    """The steps of d as (production, position in the input) pairs.

    A parent comes after its children, so read backwards each step's
    position is known before its child blocks' roots get it as their
    prefix; a step that no block absorbs sits at its own slot."""
    steps = d.steps
    starts, spelled = block_starts(steps), [()] * len(steps)
    for k in range(len(steps) - 1, -1, -1):
        spelled[k] += steps[k][1]
        for c in child_roots(starts, k):
            spelled[c] = spelled[k]
    return tuple((p, w) for (p, _, _), w in zip(steps, spelled))


def replay_derivation(g: Wtgc, d: Derivation) -> bool:
    """Re-run a derivation step by step against its input tree.

    Each step's lhs must match the input at the step's position, with
    the constraints relativized to the original input, and its children
    must be the blocks just before it: one per nonterminal leaf of the
    lhs, left to right, each in that leaf's slot and derived to its
    nonterminal.  So the steps are in left-most order, and in the end one
    block derives the whole input to the target.  This is deliberately
    independent of `derivations` and of the weight map.
    """
    t, steps = d.input, d.steps
    starts = block_starts(steps)
    for k, (p, w) in enumerate(absolute_steps(d)):
        try:
            g.prod_id(p)
        except GrammarError:
            return False
        node, dec = subtree_or_none(t, w), g.decompose(p)
        kids = child_roots(starts, k)
        if (node is None or len(kids) != steps[k][2]
                or [(steps[c][1], steps[c][0].target) for c in kids]
                != list(zip(dec.positions, dec.states))):
            return False
        for u, label, arity in (((), p.lhs.label, len(p.lhs.children)),
                                *dec.checks):
            below = subtree_or_none(node, u)
            if (below is None or below.label != label
                    or len(below.children) != arity):
                return False
        if not (satisfies_all(node, p.eq)
                and dissatisfies_all(node, p.ineq)):
            return False
    if steps:
        p, v, _ = steps[-1]
        return not starts[-1] and v == () and p.target == d.target
    return t == leaf(d.target)


def state_weight(g: Wtgc, q: str, t: Tree):
    """The initial-algebra weight of t at nonterminal q."""
    return weight_map(g).state_weight(q, t)


def evaluate(g: Wtgc, t: Tree):
    """The weight the grammar assigns to t: sum of F_q * wt_q(t)."""
    return weight_map(g).evaluate(t)


def incorporated(d: Derivation, w: Position) -> Derivation:
    """The derivation for the subtree at w hidden inside d: the block of
    the step at w, or, where w lies inside a step's lhs, the child blocks
    of that step below w, each root step placed relative to w."""
    sub, steps = subtree(d.input, w), d.steps
    if not steps:
        return Derivation((), sub, None)
    starts = block_starts(steps)
    _, k, rest = step_path(d, starts, w)
    if rest:
        n = len(rest)
        return Derivation(tuple(chain.from_iterable(
            moved_block(steps[starts[c]:c + 1], steps[c][1][n:])
            for c in child_roots(starts, k) if steps[c][1][:n] == rest)),
            sub, None)
    return Derivation(moved_block(steps[starts[k]:k + 1], ()), sub,
                      steps[k][0].target)


def moved_block(block: tuple, v: Position) -> tuple:
    """A block of steps with its root step rewriting slot v."""
    p, _, n = block[-1]
    return block[:-1] + ((p, v, n),)


def check_unambiguous_upto(g: Wtgc, max_size: int):
    """First tree (size order, then serialized form) carrying more than
    one complete left-most derivation to the final support, if any."""
    m = weight_map(g)
    supp = g.final_support()
    for t in enumerate_trees(g.alphabet, max_size):
        count = 0
        for q in supp:
            count += m.derivation_count(q, t)
            if count > 1:
                return t
    return None
