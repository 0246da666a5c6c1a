"""Commutative semirings and semiring homomorphisms.

Five weight structures are shipped: the Boolean semiring, the residues
mod m, and three instances of `NaturalsSemiring`: the nonnegative
integers (+, *), the tropical semiring (min, +) and the arctic semiring
(max, +), which differ only in their constants and builtin operations.
All carriers are exact; the only non-integer values are the two
infinities used as absorbing zeros by the tropical and arctic instances,
so element comparison is plain ``==`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Callable

from .errors import SemiringError
from .trees import is_decimal

INF = float("inf")
NEG_INF = float("-inf")


class Semiring:
    """A commutative semiring together with carrier bookkeeping.

    Subclasses provide ``add``/``mul``, the constants ``zero``/``one``,
    the structural flags, and literal parsing/formatting for the grammar
    file format.
    """

    name = "abstract"
    zero = None
    one = None
    zero_sum_free = False
    zero_divisor_free = False
    finite = False

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def contains(self, a) -> bool:
        raise NotImplementedError

    def elements(self):
        """All carrier elements; only available for finite instances."""
        raise SemiringError(f"{self.name} has an infinite carrier")

    def sample(self):
        """Deterministic elements used by law checks on infinite carriers."""
        return self.elements()

    def sum(self, items):
        total = self.zero
        for a in items:
            total = self.add(total, a)
        return total

    def prod(self, items):
        total = self.one
        for a in items:
            total = self.mul(total, a)
        return total

    def power(self, a, n: int):
        if n < 0:
            raise SemiringError("negative exponent")
        result = self.one
        for _ in range(n):
            result = self.mul(result, a)
        return result

    def power_profile(self, a) -> tuple[int, int]:
        """Smallest (preperiod k, period p) with a^(j+p) = a^j for all j >= k,
        by direct enumeration of the power sequence of a finite carrier."""
        if not self.finite:
            raise SemiringError(f"{self.name} has an infinite carrier")
        seen = {}
        x = self.one
        i = 0
        while x not in seen:
            seen[x] = i
            x = self.mul(x, a)
            i += 1
        first = seen[x]
        return first, i - first

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        """The literal `parse` reads back as a; a bool is spelled as its
        int, which every carrier that holds it holds too."""
        return str(int(a)) if type(a) is bool else str(a)

    def __eq__(self, other):
        return isinstance(other, Semiring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<semiring {self.name}>"


class BooleanSemiring(Semiring):
    name = "boolean"
    zero = 0
    one = 1
    zero_sum_free = True
    zero_divisor_free = True
    finite = True

    def add(self, a, b):
        return a | b

    def mul(self, a, b):
        return a & b

    def contains(self, a):
        return isinstance(a, int) and a in (0, 1)

    def elements(self):
        return (0, 1)

    def parse(self, text):
        if text in ("0", "1"):
            return int(text)
        raise SemiringError(f"bad boolean literal {text!r}")


class NaturalsSemiring(Semiring):
    """A semiring on the naturals, possibly with an infinite zero
    adjoined: `nat` is (N, +, *), `tropical` is (N u {inf}, min, +) and
    `arctic` is (N u {-inf}, max, +).  The operations are builtins, and
    the adjoined zero is the only literal that is not a digit string."""

    zero_sum_free = True
    zero_divisor_free = True

    def __init__(self, name, zero, one, sample, add, mul):
        self.name = name
        self.zero = zero
        self.one = one
        self._sample = sample
        self.add = add
        self.mul = mul

    def contains(self, a):
        if isinstance(a, int):
            return a >= 0
        # an adjoined infinite zero is the only element outside N
        return self.zero != 0 and a == self.zero

    def sample(self):
        return self._sample

    def parse(self, text):
        if is_decimal(text):
            return int(text)
        if text == self.format(self.zero):
            return self.zero
        raise SemiringError(f"bad {self.name} literal {text!r}")


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class IntegersMod(Semiring):
    """The residues mod m; for composite m neither zero-sum nor
    zero-divisor free, which makes it the stock source of anomalies."""

    finite = True
    zero = 0
    one = 1
    zero_sum_free = False

    def __init__(self, modulus: int):
        if modulus < 2:
            raise SemiringError("zmod needs a modulus >= 2")
        self.modulus = modulus
        self.name = f"zmod {modulus}"
        self.zero_divisor_free = _is_prime(modulus)

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def contains(self, a):
        return isinstance(a, int) and 0 <= a < self.modulus

    def elements(self):
        return tuple(range(self.modulus))

    def parse(self, text):
        if is_decimal(text) and int(text) < self.modulus:
            return int(text)
        raise SemiringError(f"bad zmod {self.modulus} literal {text!r}")


BOOLEAN = BooleanSemiring()
NATURAL = NaturalsSemiring("nat", 0, 1, (0, 1, 2, 3, 5, 7), add, mul)
TROPICAL = NaturalsSemiring("tropical", INF, 0, (INF, 0, 1, 2, 5), min, add)
ARCTIC = NaturalsSemiring("arctic", NEG_INF, 0, (NEG_INF, 0, 1, 2, 5), max,
                          add)
_FIXED = {s.name: s for s in (BOOLEAN, NATURAL, TROPICAL, ARCTIC)}


def semiring_from_name(text: str) -> Semiring:
    """Resolve a semiring literal such as ``arctic`` or ``zmod 4``."""
    parts = text.split()
    if len(parts) == 1 and parts[0] in _FIXED:
        return _FIXED[parts[0]]
    if len(parts) == 2 and parts[0] == "zmod" and is_decimal(parts[1]):
        return IntegersMod(int(parts[1]))
    raise SemiringError(f"unknown semiring {text!r}")


@dataclass(frozen=True)
class SemiringHom:
    """A mapping between semirings that respects both monoid structures."""

    source: Semiring
    target: Semiring
    fn: Callable

    def __call__(self, a):
        return self.fn(a)

    def check(self) -> None:
        """Verify the homomorphism laws on samples (exhaustive for finite
        carriers); raises on the first violation."""
        src, tgt, h = self.source, self.target, self.fn
        if h(src.zero) != tgt.zero:
            raise SemiringError("hom does not map zero to zero")
        if h(src.one) != tgt.one:
            raise SemiringError("hom does not map one to one")
        pool = src.elements() if src.finite else src.sample()
        for a in pool:
            for b in pool:
                if h(src.add(a, b)) != tgt.add(h(a), h(b)):
                    raise SemiringError(f"hom breaks + on ({a}, {b})")
                if h(src.mul(a, b)) != tgt.mul(h(a), h(b)):
                    raise SemiringError(f"hom breaks * on ({a}, {b})")


def support_hom(s: Semiring) -> SemiringHom:
    """The Boolean-valued map a -> (a != 0).

    It is a semiring homomorphism exactly when ``s`` is zero-sum free
    (for +) and zero-divisor free (for *); descriptors lacking either
    flag are rejected.
    """
    if not s.zero_divisor_free:
        raise SemiringError(f"{s.name} is not zero-divisor free")
    if not s.zero_sum_free:
        raise SemiringError(f"{s.name} is not zero-sum free")
    hom = SemiringHom(s, BOOLEAN, lambda a: 0 if a == s.zero else 1)
    hom.check()
    return hom


def identity_hom(s: Semiring) -> SemiringHom:
    return SemiringHom(s, s, lambda a: a)
