import copy
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gammas, t
import wtgc
from wtgc.errors import InvalidPositionError, TreeError
from wtgc.trees import (
    RankedAlphabet,
    Tree,
    compositions,
    dissatisfies_all,
    enumerate_trees,
    fold,
    leaf,
    parse_pos,
    pos_str,
    replace,
    satisfies,
    satisfies_all,
    substitute,
    subtree,
    term_str,
    trees_of_size,
    walk,
)

ALPHA = leaf("alpha")
EX1_TREE = t("sigma", gammas(2, ALPHA), gammas(1, ALPHA))


def trees(leaves=("a", "b"), unary=("g",), binary=("f",)):
    return st.recursive(
        st.sampled_from(list(leaves)).map(leaf),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(list(unary)), sub)
            .map(lambda x: Tree(x[0], [x[1]])),
            st.tuples(st.sampled_from(list(binary)), sub, sub)
            .map(lambda x: Tree(x[0], [x[1], x[2]]))),
        max_leaves=12)


def test_positions_leaf():
    assert [w for w, _ in walk(ALPHA)] == [()]


def test_positions_small():
    assert {w for w, _ in walk(t("sigma", t("gamma", ALPHA), ALPHA))} \
        == {(), (1,), (1, 1), (2,)}


def test_positions_example_tree():
    # sigma(gamma(gamma(alpha)),gamma(alpha)) has six nodes
    assert {w for w, _ in walk(EX1_TREE)} == {
        (), (1,), (1, 1), (1, 1, 1), (2,), (2, 1)}


def test_subtree_root():
    assert subtree(EX1_TREE, ()) == EX1_TREE


def test_subtree_descends():
    assert subtree(t("sigma", t("gamma", ALPHA), leaf("beta")), (1, 1)) \
        == ALPHA


def test_subtree_invalid_position():
    with pytest.raises(InvalidPositionError):
        subtree(t("sigma", t("gamma", ALPHA), leaf("beta")), (3,))


def test_replace_root():
    u = t("gamma", ALPHA)
    assert replace(EX1_TREE, {(): u}) == u


def test_replace_child():
    assert replace(t("sigma", ALPHA, ALPHA), {(2,): t("gamma", ALPHA)}) \
        == t("sigma", ALPHA, t("gamma", ALPHA))


def test_replace_is_an_involution():
    u = t("gamma", leaf("beta"))
    for w, _ in walk(EX1_TREE):
        patched = replace(EX1_TREE, {w: u})
        assert replace(patched, {w: subtree(EX1_TREE, w)}) == EX1_TREE


def test_substitute():
    x1, x2 = leaf("x1"), leaf("x2")
    assert substitute(x1, {"x1": ALPHA}) == ALPHA
    assert substitute(t("sigma", x1, x1), {"x1": t("gamma", ALPHA)}) \
        == t("sigma", t("gamma", ALPHA), t("gamma", ALPHA))
    assert substitute(t("sigma", x1, x2), {"x1": ALPHA}) \
        == t("sigma", ALPHA, x2)


def test_substitute_without_recursion():
    assert sys.getrecursionlimit() < 5000
    deep = substitute(gammas(100000, leaf("x1")), {"x1": ALPHA})
    assert deep == gammas(100000, ALPHA)
    # 2^61 - 1 positions, 61 distinct objects, each rebuilt once
    shared = leaf("x1")
    for _ in range(60):
        shared = t("sigma", shared, shared)
    out = substitute(shared, {"x1": t("gamma", ALPHA)})
    assert out.size == 2 ** 60 * 3 - 1
    assert out.children[0] is out.children[1]


def test_fold_calls_f_once_per_node_object_children_first():
    shared = t("gamma", ALPHA)
    tree = t("sigma", shared, t("gamma", shared))
    calls = []

    def size(node, values):
        calls.append(node)
        return 1 + sum(values)

    assert fold(tree, size, {}) == tree.size == 6
    order = {id(node): i for i, node in enumerate(calls)}
    assert len(order) == len(calls) == 4  # six nodes, four objects
    assert all(order[id(c)] < order[id(node)]
               for node in calls for c in node.children)
    # a value already in `done` is taken as it is, and its node's
    # subtree is not walked again
    calls.clear()
    done = {id(shared): 10}
    assert fold(tree, size, done) == 1 + 10 + 11
    assert [id(node) for node in calls] == [id(tree.children[1]), id(tree)]
    assert done[id(tree)] == 22


def _compositions_by_first_part(total, parts):
    """The recursive definition the iterative one replaced."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_by_first_part(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_keep_their_order():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(0, 1)) == []
    for total in range(12):
        for parts in range(6):
            assert list(compositions(total, parts)) \
                == list(_compositions_by_first_part(total, parts)), \
                (total, parts)


def test_deep_trees_compare_without_recursion():
    # two distinct objects, far deeper than the default recursion limit
    assert sys.getrecursionlimit() < 5000
    a, b = gammas(5000, ALPHA), gammas(5000, ALPHA)
    assert a is not b and a == b
    assert len({a, b}) == 1
    assert a != gammas(5000, leaf("beta"))
    assert sum(1 for _ in walk(a)) == 5001


def test_hash_is_label_and_children_hashes():
    # leaves take a short cut that must give the same hash
    for label in ("alpha", "c0", "q#[1.0]"):
        assert hash(leaf(label)) == hash((label, ()))
        assert hash(Tree(label, [])) == hash((label, ()))
    gx = t("g", ALPHA)
    assert hash(gx) == hash(("g", (hash(ALPHA),)))
    assert hash(t("f", gx, ALPHA)) == hash(("f", (hash(gx), hash(ALPHA))))


def test_height_and_size():
    assert (ALPHA.height, ALPHA.size) == (0, 1)  # max |w| over one position
    assert (EX1_TREE.height, EX1_TREE.size) == (3, 6)
    for n in range(5):
        chain = gammas(n, ALPHA)
        assert (chain.height, chain.size) == (n, n + 1)


def test_satisfies():
    equal_pair = t("sigma", t("gamma", ALPHA), t("gamma", ALPHA))
    assert satisfies(equal_pair, ((1,), (2,)))
    assert satisfies(EX1_TREE, ((1, 1), (2,)))
    assert not satisfies(ALPHA, ((1,), (1,)))  # position absent


def test_satisfies_all_and_dissatisfies_all():
    assert satisfies_all(ALPHA, frozenset())
    assert dissatisfies_all(ALPHA, frozenset())
    two = t("sigma", ALPHA, leaf("beta"))
    assert dissatisfies_all(two, {((1,), (2,))})
    # one pair satisfied, another dissatisfied: neither side holds
    mixed = t("sigma", ALPHA, ALPHA)
    constraints = {((1,), (2,)), ((1,), (3,))}
    assert not satisfies_all(mixed, constraints)
    assert not dissatisfies_all(mixed, constraints)


@given(trees())
def test_positions_prefix_and_sibling_closed(tree):
    pos = {w for w, _ in walk(tree)}
    assert len(pos) == tree.size
    for w in pos:
        if w:
            assert w[:-1] in pos
            for j in range(1, w[-1]):
                assert w[:-1] + (j,) in pos


@given(trees())
def test_size_is_one_plus_children(tree):
    assert tree.size == 1 + sum(c.size for c in tree.children)


def test_replace_rejects_a_missing_position():
    with pytest.raises(InvalidPositionError, match="position 2.2 "):
        replace(EX1_TREE, {(1,): ALPHA, (2, 2): ALPHA})


def comparable(v, w):
    return v[:len(w)] == w or w[:len(v)] == v


@given(trees(), st.data())
def test_subtree_of_replace(tree, data):
    # a random antichain of positions, each with its own replacement
    at = {}
    every = [w for w, _ in walk(tree)]
    for w in data.draw(st.lists(st.sampled_from(every))):
        if not any(comparable(w, v) for v in at):
            at[w] = data.draw(trees())
    patched = replace(tree, at)
    for w, u in at.items():
        assert subtree(patched, w) is u
    for v in every:
        if not any(comparable(v, w) for w in at):
            # off every copied path: the input's own object
            assert subtree(patched, v) is subtree(tree, v)


@given(trees())
def test_reflexive_pairs(tree):
    pos = {w for w, _ in walk(tree)}
    for w in list(pos)[:5] + [(9, 9)]:
        assert satisfies(tree, (w, w)) == (w in pos)


def test_pos_str_round_trip():
    for w in [(), (1,), (1, 1), (2, 10, 3)]:
        assert parse_pos(pos_str(w)) == w
    assert pos_str(()) == "e"
    assert pos_str((1, 1)) == "1.1"
    with pytest.raises(InvalidPositionError):
        parse_pos("0.1")
    assert parse_pos("01.002") == (1, 2)


@pytest.mark.parametrize("text", [
    "+1", "1_0", "1. 2", " 1", "1.", "", "\u0661", "\u00b2", "1.\u0664",
    "1" * 5000])
def test_parse_pos_takes_ascii_decimal_components_only(text):
    # `int` alone reads "+1" as 1, "1_0" as 10 and " 2" as 2
    with pytest.raises(InvalidPositionError):
        parse_pos(text)


@pytest.mark.parametrize("rank", [-1, True, False, 1.0, "1", None])
def test_alphabet_rejects_ranks_that_are_not_ints(rank):
    # a bool rank would be written as `a:False`, which the reader rejects
    with pytest.raises(TreeError) as info:
        RankedAlphabet({"a": 0, "f": rank})
    assert str(info.value) == "bad rank for 'f'"


def test_enumerate_trees_canonical():
    alphabet = RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})
    out = list(enumerate_trees(alphabet, 5))
    assert len(out) == len(set(out))
    sizes = [x.size for x in out]
    assert sizes == sorted(sizes)
    assert len(out) == 1 + 1 + 2 + 4 + 9
    per_size = {}
    for x in out:
        per_size.setdefault(x.size, []).append(term_str(x))
    for bucket in per_size.values():
        assert bucket == sorted(bucket)


def test_buckets_are_sorted_by_serialized_form():
    # the buckets are sorted on forms spelled from the children's forms;
    # the order must be that of term_str, including the ',' and ')' that
    # sort before letters
    for symbols in ({"alpha": 0, "gamma": 1},
                    {"alpha": 0, "gamma": 1, "sigma": 2},
                    {"alpha": 0, "beta": 0, "gamma": 1, "sigma": 2},
                    {"alpha": 0, "gamma": 1, "delta": 1},
                    {"alpha": 0, "beta": 0, "gamma": 1, "delta": 1,
                     "sigma": 2}):
        alphabet = RankedAlphabet(symbols)
        for n in range(1, 8):
            bucket = trees_of_size(alphabet, n)
            assert list(bucket) == sorted(bucket, key=term_str), (symbols, n)
            assert len(set(bucket)) == len(bucket)


def test_enumeration_cache_is_thread_safe():
    # threads that extend one alphabet's cache at once must neither skip
    # nor repeat a bucket: bucket n holds exactly the trees of size n
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            # a fresh alphabet each round, so the cache starts empty
            alphabet = RankedAlphabet({f"a{round_}": 0, "g": 1, "f": 2})
            errors = []

            def work():
                try:
                    list(enumerate_trees(alphabet, 7))
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not errors and not any(th.is_alive() for th in threads)
            for n in range(1, 8):
                bucket = trees_of_size(alphabet, n)
                assert bucket and all(x.size == n for x in bucket), n
    finally:
        sys.setswitchinterval(old)


def test_term_str_spells_a_repeated_child_once(monkeypatch):
    a = t("g", ALPHA)
    assert term_str(t("f", t("f", a, a), t("f", a, a))) == (
        "f(f(g(alpha),g(alpha)),f(g(alpha),g(alpha)))")
    assert term_str(t("f", a, t("g", ALPHA))) == "f(g(alpha),g(alpha))"
    tree, text = ALPHA, "alpha"
    for _ in range(10):
        tree, text = t("f", tree, tree), f"f({text},{text})"
    calls = []
    spell = wtgc.trees.term_str

    def counted(node):
        calls.append(node)
        return spell(node)

    monkeypatch.setattr(wtgc.trees, "term_str", counted)  # the recursion too
    assert counted(tree) == text
    assert len(calls) == 10  # one per distinct inner node, not 2047


def test_term_str_takes_one_frame_per_level():
    # a generator inside `join` took two, so 480 levels were too many
    tree = gammas(700, ALPHA)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = term_str(tree)
    finally:
        sys.setrecursionlimit(old)
    assert text == "gamma(" * 700 + "alpha" + ")" * 700


_PICKLE = """
import pickle, sys
from wtgc.grammar import Production
from wtgc.trees import Tree, leaf
a = Tree("gamma", [leaf("alpha")])
trees = [leaf("alpha"), Tree("sigma", [a, a])]
prods = [Production(tree, "q", 1, [((1,), (2,))] if tree.children else [])
         for tree in trees]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps((trees, prods)))
else:
    loaded, loaded_prods = pickle.loads(sys.stdin.buffer.read())
    for old, new in zip(loaded + loaded_prods, trees + prods):
        assert old == new and hash(old) == hash(new) and old in {new}, old
    assert loaded[1].children[0] is loaded[1].children[1]
    print("ok")
"""


def test_pickles_read_back_under_another_hash_seed():
    src = str(Path(wtgc.__file__).resolve().parent.parent)

    def python(seed, *args, **kwargs):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", _PICKLE, *args],
                              env=env, capture_output=True, check=True,
                              timeout=60, **kwargs).stdout

    dumped = python("1", "dump")
    assert python("2", "load", input=dumped) == b"ok\n"


def test_copies_keep_hash_and_sharing():
    a = t("gamma", ALPHA)
    tree = t("sigma", a, a)
    for copied in (copy.copy(tree), copy.deepcopy(tree)):
        assert copied == tree and hash(copied) == hash(tree)
        assert copied.children[0] is copied.children[1]
