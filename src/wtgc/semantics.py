"""Both semantics of a WTGc, computed on one weight map per grammar.

The weight map (`WeightMap`, built on first use and kept on the grammar)
gives every distinct subtree it meets a canonical id from its label and
its children's ids, so structurally equal subtrees share one id however
they are shared in memory (hash-consing).  Trees are walked in
post-order with an explicit stack, each distinct node object once: deep
trees need no recursion, and DAG-shaped inputs cost only their distinct
objects.  Per id the map stores the sparse vector of nonzero state
weights, the initial-algebra weight map, with equal vectors stored once.

Each left-hand side is compiled once into flat path checks, indexed by
root label and arity and then by its first nonterminal leaf, so a node
only tries the productions whose first leaf has a nonzero weight there.
Constraint pairs compare ids.  Where no production of a label looks
below the children or carries constraints, a node's vector depends on
its children's vectors alone and is memoized on them.

`evaluate` and `state_weight` read the vector of the root; the root
object itself is not remembered.  `derivations` enumerates the complete
left-most derivations with the same compiled matcher and ids: the
alternatives at each (nonterminal, id) are memoized with their counts,
and each derivation is spelled out once with absolute positions.  Over
a zero-sum free, zero-divisor free semiring a zero weight already rules
a derivation out.  Summing derivation weights must agree with the weight
map, which the test suite uses as the master oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import GrammarError
from .grammar import Production, Wtgc
from .trees import (
    Position,
    Tree,
    dissatisfies_all,
    enumerate_trees,
    leaf,
    leftmost_key,
    replace,
    satisfies_all,
    subtree,
    subtree_or_none,
)


@dataclass(frozen=True)
class Derivation:
    """A sequence of (production, position) steps for a fixed input tree.

    The input tree is part of the identity: constraints are checked on
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
    """One production's left-hand side compiled into flat path checks.

    The root label and arity are the key the plan is indexed by.
    `checks` holds (path, label, arity) for every inner lhs node below
    the root in pre-order; `states`, `paths` and `positions` describe the
    nonterminal leaves left to right (paths 0-based, for navigation;
    positions 1-based, for derivation steps); `eq` and `ne` are the
    constraint pairs as 0-based paths.  `guarded` is false when there is
    nothing to check beyond the root, `flat` when every child of the root
    is a nonterminal leaf, and `rest` pairs every leaf after the first
    with its path, or with its child index when `flat`.
    """

    __slots__ = ("production", "target", "weight", "checks", "states",
                 "paths", "positions", "eq", "ne", "guarded", "flat", "rest")

    def __init__(self, p: Production, nonterminals):
        kids = p.lhs.children
        states = tuple(c.label for c in kids)
        self.flat = all(not c.children and q in nonterminals
                        for c, q in zip(kids, states))
        if self.flat:
            # the normalized shape f(q1, ..., qk): nothing below the root
            # to check, and the leaf paths are shared per arity
            checks = ()
            paths, self.positions = _flat_paths(len(kids))
        else:
            checks, states, paths = _walk_lhs(p.lhs, nonterminals)
            self.positions = tuple(tuple(i + 1 for i in path)
                                   for path in paths)
        self.production = p
        self.target = p.target
        self.weight = p.weight
        self.checks = checks
        self.states = states
        self.paths = paths
        self.eq = _zero_based(p.eq)
        self.ne = _zero_based(p.ineq)
        self.guarded = bool(checks or self.eq or self.ne)
        self.rest = tuple(zip(states[1:], (path[0] if self.flat else path
                                           for path in paths[1:])))


_FLAT_PATHS: dict = {}


def _flat_paths(k: int) -> tuple:
    """The 0-based paths and 1-based positions of k children."""
    shape = _FLAT_PATHS.get(k)
    if shape is None:
        shape = _FLAT_PATHS[k] = (tuple((i,) for i in range(k)),
                                  tuple((i + 1,) for i in range(k)))
    return shape


def _walk_lhs(lhs: Tree, nonterminals) -> tuple:
    """Shape checks and nonterminal leaves of a left-hand side below its
    root, in pre-order."""
    checks, states, paths = [], [], []
    stack = [(c, (i,)) for i, c in reversed(tuple(enumerate(lhs.children)))]
    while stack:
        node, path = stack.pop()
        if not node.children and node.label in nonterminals:
            states.append(node.label)
            paths.append(path)
            continue
        checks.append((path, node.label, len(node.children)))
        stack.extend((c, path + (i,))
                     for i, c in reversed(tuple(enumerate(node.children))))
    return tuple(checks), tuple(states), tuple(paths)


def _zero_based(pairs) -> tuple:
    if not pairs:
        return ()
    return tuple((tuple(i - 1 for i in v), tuple(i - 1 for i in w))
                 for v, w in sorted(pairs))


class _Bucket:
    """The compiled productions sharing one root label and arity.

    `stateless` and `by_first` index the plans for the weight map: a plan
    with nonterminal leaves can only contribute where its first leaf has
    a nonzero weight, so it is found from that leaf's path (with the
    child index when the path has length one) and state.  `by_target`
    keeps production order for derivation enumeration.  A bucket is
    `plain` when no plan looks past the children or checks constraints;
    a node's vector then depends on its children's vectors alone, and
    `memo` maps the identities of those vectors to it.
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
                by_first.setdefault(plan.paths[0], {}).setdefault(
                    plan.states[0], []).append(plan)
            else:
                self.stateless.append(plan)
        self.by_first = tuple(
            (path, path[0] if len(path) == 1 else None, by_state)
            for path, by_state in by_first.items())


# the memo entry of a (nonterminal, id) pair without derivations
_UNDERIVABLE = (0, ())


def _at(keys, ch, me, path):
    """The id at a 0-based path below a node with child ids `ch` and
    id `me`, or None if the path leaves the tree."""
    if not path:
        return me
    i = path[0]
    if i >= len(ch):
        return None
    c = ch[i]
    for i in path[1:]:
        kids = keys[c][1]
        if i >= len(kids):
            return None
        c = kids[i]
    return c


class WeightMap:
    """Canonical subtree ids, their weight vectors and derivation counts
    for one grammar.

    Ids are assigned in post-order, so children always have smaller ids
    than their parents.  `keys[i]` is the (label, child ids) pair of id
    i and `vectors[i]` its nonzero state weights as (state, weight)
    pairs.  Node objects already walked are remembered by identity (and
    kept alive, so identities stay valid).  The map holds no reference
    to its grammar.  The public methods take a lock, so one grammar can
    be shared between threads.
    """

    __slots__ = ("semiring", "nonterminals", "finals", "_groups", "_heads",
                 "_exact", "_buckets", "_ids", "keys", "vectors", "_seen",
                 "_alive", "_alts", "_distinct", "_lock")

    def __init__(self, g: Wtgc):
        self.semiring = g.semiring
        self.nonterminals = g.nonterminals
        self.finals = tuple((q, g.final[q]) for q in g.final_support())
        groups: dict = {}
        for p in g.productions:
            key = (p.lhs.label, len(p.lhs.children))
            groups.setdefault(key, []).append(p)
        self._groups = groups
        self._heads = {(p.lhs.label, len(p.lhs.children), p.target)
                       for p in g.productions}
        # Over a zero-sum free and zero-divisor free semiring, with no
        # zero-weight production, a state weight is nonzero exactly where
        # a derivation exists, so the vectors rule out derivations.
        s = g.semiring
        self._exact = (s.zero_sum_free and s.zero_divisor_free
                       and all(p.weight != s.zero for p in g.productions))
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
            productions = self._groups.get((label, arity), ())
            bucket = _Bucket([_Plan(p, self.nonterminals)
                              for p in productions])
            self._buckets[(label, arity)] = bucket
        return bucket

    def _cid(self, t: Tree) -> int:
        """The canonical id of t, interning every node object below it
        that was not walked before."""
        seen = self._seen
        c = seen.get(id(t))
        if c is not None:
            return c
        get = seen.get
        stack = [t]
        while stack:
            node = stack[-1]
            ch = tuple(map(get, map(id, node.children)))
            if None in ch:
                stack.extend(k for k in node.children if get(id(k)) is None)
                continue
            stack.pop()
            if id(node) not in seen:  # a shared node may be pushed twice
                seen[id(node)] = self._node_id(node.label, ch)
                self._alive.append(node)
        return seen[id(t)]

    def _node_id(self, label, ch) -> int:
        key = (label, ch)
        c = self._ids.get(key)
        if c is None:
            c = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.vectors.append(
                self._vector(self._bucket(label, len(ch)), ch, c))
        return c

    # -- weights --------------------------------------------------------------

    def _fits(self, plan: _Plan, ch, me) -> bool:
        """Shape checks below the root and the constraint pairs."""
        keys = self.keys
        for path, label, arity in plan.checks:
            c = _at(keys, ch, me, path)
            if c is None:
                return False
            key = keys[c]
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
            return self.vectors[self._node_id(t.label, ch)]
        vec = bucket.memo.get(tuple(map(id, map(self.vectors.__getitem__,
                                                ch))))
        return self._vector(bucket, ch, None) if vec is None else vec

    def _declared(self, q: str):
        if q not in self.nonterminals:
            raise GrammarError(f"undeclared nonterminal {q!r}")

    def state_weight(self, q: str, t: Tree):
        self._declared(q)
        with self._lock:
            vec = self._root_vector(t)
        for r, x in vec:
            if r == q:
                return x
        return self.semiring.zero

    def evaluate(self, t: Tree):
        s = self.semiring
        total = s.zero
        with self._lock:
            vec = self._root_vector(t)
        for q, f in self.finals:
            for r, x in vec:
                if r == q:
                    total = s.add(total, s.mul(f, x))
                    break
        return total

    # -- derivations ------------------------------------------------------------

    def _options(self, q, c):
        """The plans for q that fit the node with id c, with the ids at
        their nonterminal leaves, in production order."""
        keys = self.keys
        label, ch = keys[c]
        plans = self._bucket(label, len(ch)).by_target.get(q, ())
        return [(plan, ch if plan.flat else
                 tuple(_at(keys, ch, c, path) for path in plan.paths))
                for plan in plans
                if not plan.guarded or self._fits(plan, ch, c)]

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
        memoizing the alternatives of every (state, id) reached."""
        alts = self._alts
        found = alts.get((q, c))
        if found is not None:
            return found[0]
        if self._underivable(q, c):
            return 0
        stack = [(q, c)]
        while stack:
            key = stack[-1]
            if key in alts:
                stack.pop()
                continue
            if self._underivable(*key):
                alts[key] = _UNDERIVABLE
                stack.pop()
                continue
            options = self._options(*key)
            missing = [sub for plan, subs in options
                       for sub in zip(plan.states, subs) if sub not in alts]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            kept, total = [], 0
            for plan, subs in options:
                n = 1
                for sub in zip(plan.states, subs):
                    n *= alts[sub][0]
                if n:
                    kept.append((plan, subs, n))
                    total += n
            alts[key] = (total, tuple(kept)) if total else _UNDERIVABLE
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
        stack = [(q, c, (), index)]
        while stack:
            q, c, base, i = stack.pop()
            options = alts[(q, c)][1]
            if not i:
                plan, subs, _ = options[0]
                out.append((plan.production, base))
                stack.extend((state, sub, base + pos, 0) for state, sub, pos
                             in zip(plan.states, subs, plan.positions))
                continue
            for plan, subs, n in options:
                if i < n:
                    break
                i -= n
            out.append((plan.production, base))
            children = []
            for state, sub, pos in reversed(tuple(
                    zip(plan.states, subs, plan.positions))):
                i, r = divmod(i, alts[(state, sub)][0])
                children.append((state, sub, base + pos, r))
            stack.extend(reversed(children))
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
    for p, _ in d.steps:
        g.prod_id(p)  # raises on foreign productions
        total = s.mul(total, p.weight)
    return total


def replay_derivation(g: Wtgc, d: Derivation) -> bool:
    """Re-run a derivation step by step against its input tree.

    Checks the sentential-form rewriting, the constraint relativization
    to the original input, the left-most step order, and the final
    nonterminal.  This is deliberately independent of `derivations`.
    """
    t = d.input
    form = t
    previous = None
    for p, w in d.steps:
        try:
            g.prod_id(p)
        except GrammarError:
            return False
        if previous is not None and leftmost_key(w) <= leftmost_key(previous):
            return False
        previous = w
        at = subtree_or_none(form, w)
        if at is None or at != p.lhs:
            return False
        checked = subtree_or_none(t, w)
        if checked is None:
            return False
        if not satisfies_all(checked, p.eq):
            return False
        if not dissatisfies_all(checked, p.ineq):
            return False
        form = replace(form, leaf(p.target), w)
    return form == leaf(d.target)


def state_weight(g: Wtgc, q: str, t: Tree):
    """The initial-algebra weight of t at nonterminal q."""
    return weight_map(g).state_weight(q, t)


def evaluate(g: Wtgc, t: Tree):
    """The weight the grammar assigns to t: sum of F_q * wt_q(t)."""
    return weight_map(g).evaluate(t)


def incorporated(d: Derivation, w: Position) -> Derivation:
    """The derivation for the subtree at w hidden inside d: the steps at
    or below w, with the prefix stripped."""
    sub = subtree(d.input, w)
    n = len(w)
    steps = tuple((p, pos[n:]) for p, pos in d.steps if pos[:n] == w)
    target = None
    if steps and steps[-1][1] == ():
        target = steps[-1][0].target
    return Derivation(steps, sub, target)


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
