import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtgc.errors import SemiringError
from wtgc.semiring import (
    ARCTIC,
    BOOLEAN,
    INF,
    NATURAL,
    NEG_INF,
    TROPICAL,
    IntegersMod,
    Semiring,
    semiring_from_name,
    support_hom,
)

ZMOD4 = IntegersMod(4)
ALL = (BOOLEAN, NATURAL, TROPICAL, ARCTIC, ZMOD4, IntegersMod(5))


def test_arctic_sum_is_max():
    assert ARCTIC.add(2, 3) == 3


def test_additive_identity():
    for s in ALL:
        for a in s.sample():
            assert s.add(s.zero, a) == a


def test_zmod_sum_wraps():
    assert ZMOD4.add(3, 3) == 2  # (3 + 3) % 4


def test_tropical_product_is_plus():
    assert TROPICAL.mul(2, 3) == 5


def test_multiplicative_identity():
    for s in ALL:
        for a in s.sample():
            assert s.mul(s.one, a) == a


def test_zmod_zero_divisor():
    assert ZMOD4.mul(2, 2) == 0


def test_semiring_laws_on_samples():
    for s in ALL:
        pool = s.elements() if s.finite else s.sample()
        for a in pool:
            assert s.mul(s.zero, a) == s.zero
            for b in pool:
                assert s.add(a, b) == s.add(b, a)
                assert s.mul(a, b) == s.mul(b, a)
                for c in pool:
                    assert s.add(s.add(a, b), c) == s.add(a, s.add(b, c))
                    assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))
                    assert s.mul(a, s.add(b, c)) \
                        == s.add(s.mul(a, b), s.mul(a, c))


@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9),
       st.integers(0, 10 ** 9))
def test_natural_distributes(a, b, c):
    assert NATURAL.mul(a, NATURAL.add(b, c)) \
        == NATURAL.add(NATURAL.mul(a, b), NATURAL.mul(a, c))


def test_flags():
    for s in (BOOLEAN, NATURAL, TROPICAL, ARCTIC):
        assert s.zero_sum_free and s.zero_divisor_free
    assert not ZMOD4.zero_sum_free and not ZMOD4.zero_divisor_free
    assert IntegersMod(5).zero_divisor_free
    assert not IntegersMod(5).zero_sum_free
    assert BOOLEAN.finite and ZMOD4.finite and not NATURAL.finite


def test_support_hom_arctic():
    h = support_hom(ARCTIC)
    assert h(NEG_INF) == 0
    assert h(5) == 1
    assert h(0) == 1  # the arctic one


def test_support_hom_rejects_zero_divisors():
    with pytest.raises(SemiringError, match="not zero-divisor free"):
        support_hom(ZMOD4)


def test_support_hom_commutes_with_operations():
    for s in (BOOLEAN, NATURAL, TROPICAL, ARCTIC):
        h = support_hom(s)
        pool = s.elements() if s.finite else s.sample()
        for a in pool:
            for b in pool:
                assert h(s.add(a, b)) == BOOLEAN.add(h(a), h(b))
                assert h(s.mul(a, b)) == BOOLEAN.mul(h(a), h(b))


def test_power_profile_examples():
    assert ZMOD4.power_profile(2) == (2, 1)  # 2^2 = 0 = 2^3
    assert BOOLEAN.power_profile(1) == (0, 1)
    assert ZMOD4.power_profile(3) == (0, 2)  # 3^2 = 1


def test_power_profile_is_a_period():
    for s in (BOOLEAN, ZMOD4, IntegersMod(6), IntegersMod(12)):
        for a in s.elements():
            k, p = s.power_profile(a)
            assert p >= 1
            for j in range(k, k + 4):
                assert s.power(a, j + p) == s.power(a, j)


def test_power_profile_infinite_carrier_raises():
    # the power sequence of 2 in nat never repeats
    for s, a in ((NATURAL, 2), (NATURAL, 0), (TROPICAL, TROPICAL.zero),
                 (ARCTIC, 3)):
        with pytest.raises(SemiringError, match="infinite carrier"):
            s.power_profile(a)


def test_from_name_round_trip():
    for s in ALL:
        assert semiring_from_name(s.name) == s
    with pytest.raises(SemiringError):
        semiring_from_name("rational")


def test_element_literals():
    assert TROPICAL.parse("inf") == TROPICAL.zero
    assert ARCTIC.parse("-inf") == ARCTIC.zero
    assert ARCTIC.format(ARCTIC.zero) == "-inf"
    assert ZMOD4.parse("3") == 3
    with pytest.raises(SemiringError):
        ZMOD4.parse("4")
    with pytest.raises(SemiringError):
        NATURAL.parse("-1")


INF = float("inf")


def test_naturals_behaviour_table():
    # contains on 0, 0.0, True, False, -1, 3, 2.5, inf, -inf; nat keeps
    # rejecting floats, and only the adjoined zero is an infinity
    values = (0, 0.0, True, False, -1, 3, 2.5, INF, NEG_INF)
    contains = {
        NATURAL: (1, 0, 1, 1, 0, 1, 0, 0, 0),
        TROPICAL: (1, 0, 1, 1, 0, 1, 0, 1, 0),
        ARCTIC: (1, 0, 1, 1, 0, 1, 0, 0, 1),
    }
    texts = ("0", "5", "007", "inf", "-inf", "Inf", "-1", "")
    parsed = {
        NATURAL: (0, 5, 7, None, None, None, None, None),
        TROPICAL: (0, 5, 7, INF, None, None, None, None),
        ARCTIC: (0, 5, 7, None, NEG_INF, None, None, None),
    }
    formatted = {"0": "0", "5": "5", "007": "7", "inf": "inf",
                 "-inf": "-inf"}
    for s in (NATURAL, TROPICAL, ARCTIC):
        assert [int(s.contains(a)) for a in values] == list(contains[s])
        for text, want in zip(texts, parsed[s]):
            if want is None:
                with pytest.raises(SemiringError,
                                   match=f"bad {s.name} literal"):
                    s.parse(text)
                continue
            got = s.parse(text)
            assert got == want and type(got) is type(want)
            assert s.format(got) == formatted[text]


TROPICAL_GRAMMAR = """semiring tropical
alphabet alpha:0 gamma:1 sigma:2
nonterminals q r bot
final r = 5
prod alpha -> q @ 1
prod alpha -> q @ 3
prod gamma(q) -> q @ 2
prod sigma(q,bot) -> r [eq 1=2] @ 0
prod alpha -> bot @ 0
prod gamma(bot) -> bot @ 0
prod sigma(bot,bot) -> bot @ 0
"""


def test_tropical_grammar_end_to_end():
    from wtgc.decision import finiteness_analysis, is_support_empty
    from wtgc.semantics import evaluate
    from wtgc.syntax import parse_grammar, parse_term, serialize_grammar

    g = parse_grammar(TROPICAL_GRAMMAR)
    assert g.semiring == TROPICAL and g.final["q"] == INF

    def weigh(text):
        return evaluate(g, parse_term(text, g.alphabet))

    # gamma^n(alpha) costs min(1, 3) + 2n as q, the sink costs 0, and
    # the final weight of r adds 5; unequal children or a tree rooted at
    # q cost the zero, inf
    for n in range(4):
        u = "gamma(" * n + "alpha" + ")" * n
        assert weigh(f"sigma({u},{u})") == 6 + 2 * n
    assert weigh("sigma(gamma(alpha),alpha)") == INF
    assert weigh("gamma(alpha)") == INF

    text = serialize_grammar(g)
    assert "final q" not in text and "final r = 5" in text
    assert parse_grammar(text) == g

    assert not is_support_empty(g)
    assert finiteness_analysis(g) == (
        False, "cycle: q -> q")
    empty = parse_grammar(TROPICAL_GRAMMAR.replace("r = 5", "r = inf"))
    assert is_support_empty(empty)
    assert finiteness_analysis(empty) == (True, "no productive cycle")
    finite = parse_grammar(TROPICAL_GRAMMAR.replace(
        "prod gamma(q) -> q @ 2\n", ""))
    assert not is_support_empty(finite)
    assert finiteness_analysis(finite) == (True, "no productive cycle")


def test_api_weights_read_back():
    # a bool is written as its int, and no carrier takes the float 1.0,
    # so every weight a grammar built through the API accepts reads back
    from wtgc.errors import GrammarError
    from wtgc.grammar import Production, Wtgc
    from wtgc.syntax import parse_grammar, serialize_grammar
    from wtgc.trees import RankedAlphabet, leaf

    for s in ALL:
        for weight in (True, 1.0):
            def build():
                return Wtgc({"q"}, RankedAlphabet({"a": 0}), {"q": weight},
                            [Production(leaf("a"), "q", weight)], s)

            if type(weight) is float:
                assert not s.contains(weight), s
                with pytest.raises(GrammarError, match="outside the carrier"):
                    build()
                continue
            g = build()
            text = serialize_grammar(g)
            assert "final q = 1" in text and "a -> q @ 1" in text
            assert parse_grammar(text) == g
        for a in (True, False):
            assert s.contains(a) and s.parse(s.format(a)) == a


def test_semiring_errors():
    # each error of the module, with its whole message
    from wtgc.errors import ParseError
    from wtgc.semiring import SemiringHom
    from wtgc.syntax import parse_grammar

    cases = [
        (lambda: IntegersMod(1), "zmod needs a modulus >= 2"),
        (lambda: parse_grammar("semiring zmod 1\nalphabet a:0\n"),
         "zmod needs a modulus >= 2 at line 1"),
        (lambda: support_hom(IntegersMod(5)), "zmod 5 is not zero-sum free"),
        (lambda: NATURAL.power(2, -1), "negative exponent"),
        (lambda: NATURAL.elements(), "nat has an infinite carrier"),
        (SemiringHom(NATURAL, BOOLEAN, lambda a: 1).check,
         "hom does not map zero to zero"),
        (SemiringHom(NATURAL, BOOLEAN, lambda a: 0).check,
         "hom does not map one to one"),
        # 1 + 1 = 2 goes to 0, but 1 or 1 is 1
        (SemiringHom(NATURAL, BOOLEAN, lambda a: a if a < 2 else 0).check,
         "hom breaks + on (1, 1)"),
        # squaring keeps min, inf and 0, but (1 + 1)^2 is not 1^2 + 1^2
        (SemiringHom(TROPICAL, TROPICAL, lambda a: a * a).check,
         "hom breaks * on (1, 1)"),
    ]
    for call, message in cases:
        with pytest.raises((SemiringError, ParseError)) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("s", ALL[:4] + tuple(IntegersMod(m)
                                                for m in (2, 4, 5)),
                         ids=lambda s: s.name)
def test_semirings_survive_pickle_and_copy(s):
    import copy
    import pickle

    for again in (pickle.loads(pickle.dumps(s)), copy.copy(s),
                  copy.deepcopy(s)):
        assert again == s and type(again) is type(s)
        assert (again.zero, again.one, again.finite, again.zero_sum_free,
                again.zero_divisor_free) == (s.zero, s.one, s.finite,
                                             s.zero_sum_free,
                                             s.zero_divisor_free)
        assert again.sample() == s.sample()
        for a in s.sample():
            assert again.contains(a) and again.parse(s.format(a)) == a
            for b in s.sample():
                assert again.add(a, b) == s.add(a, b)
                assert again.mul(a, b) == s.mul(a, b)


def test_boolean_literals_follow_the_digit_rule():
    assert BOOLEAN.parse("01") == 1 and BOOLEAN.parse("000") == 0
    assert type(BOOLEAN.parse("01")) is int
    for text in ("2", "+1", "٤", "inf", "", "true"):
        with pytest.raises(SemiringError) as info:
            BOOLEAN.parse(text)
        assert str(info.value) == f"bad boolean literal {text!r}"


def test_a_semiring_is_built_from_its_parts():
    # the tropical semiring under another name: its carrier test,
    # literals and flags come from the constructor alone
    from operator import add

    s = Semiring("minplus", INF, 0, min, add, sample=(INF, 0, 3))
    assert s.contains(INF) and s.contains(4) and not s.contains(-INF)
    assert not s.finite and s.sample() == (INF, 0, 3)
    assert s.parse("inf") == INF and s.parse("07") == 7
    assert s.zero_sum_free and s.zero_divisor_free
    assert support_hom(s)(INF) == 0
    with pytest.raises(SemiringError, match="infinite carrier"):
        s.power_profile(3)
    # flags are taken as given
    finite = Semiring("two", 0, 1, max, min, elements=range(2),
                      zero_sum_free=False)
    assert finite.finite and finite.elements() == (0, 1)
    assert finite.sample() == (0, 1) and not finite.contains(2)
    with pytest.raises(SemiringError, match="^two is not zero-sum free$"):
        support_hom(finite)


def test_equality_compares_the_structure():
    # name, zero, one, the finite carrier and both flags; the hash stays
    # on the name
    from operator import add, and_, or_

    for s in ALL + tuple(IntegersMod(m) for m in (2, 6, 7)):
        assert semiring_from_name(s.name) == s
    weak = Semiring("boolean", 0, 1, or_, and_, elements=(0, 1),
                    zero_divisor_free=False)
    assert weak != BOOLEAN and hash(weak) == hash(BOOLEAN)
    assert Semiring("boolean", 0, 1, or_, and_, elements=(0, 1)) == BOOLEAN
    others = [
        Semiring("tropical", INF, 1, min, add),
        Semiring("tropical", NEG_INF, 0, min, add),
        Semiring("tropical", INF, 0, min, add, zero_sum_free=False),
        Semiring("tropical", INF, 0, min, add, elements=(INF, 0)),
        Semiring("minplus", INF, 0, min, add),
    ]
    assert Semiring("tropical", INF, 0, min, add) == TROPICAL
    assert all(other != TROPICAL for other in others)
    assert Semiring("zmod 4", 0, 1, add, add, elements=range(3),
                    zero_sum_free=False, zero_divisor_free=False) != ZMOD4
