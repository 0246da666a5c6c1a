"""Commutative semirings and semiring homomorphisms.

One class, `Semiring`, describes every weight structure: its name, zero
and one, ``add`` and ``mul``, its carrier and the two structural flags
(zero-sum and zero-divisor freeness) that the support constructions
branch on.  A finite carrier is listed by ``elements``; any other is the
naturals, plus the zero when that zero is an infinity.  Literals are
ASCII digit strings naming carrier elements (leading zeros allowed) and
the spelling of an infinite zero; a carrier of other values needs a
subclass that overrides `contains` and `parse`.

Five structures are shipped: the Boolean semiring, the naturals (+, *),
the tropical (min, +) and arctic (max, +) semirings and the residues
mod m (`IntegersMod`).  The only non-integer elements are the tropical
and arctic zeros, two infinities, so element comparison is plain ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, and_, mul, or_
from typing import Callable

from .errors import SemiringError
from .trees import is_decimal

INF = float("inf")
NEG_INF = float("-inf")


class Semiring:
    """A commutative semiring: ``elements`` lists a finite carrier (a
    tuple or a range), and ``sample`` the elements that law checks use,
    by default all of a finite carrier."""

    def __init__(self, name: str, zero, one, add: Callable, mul: Callable,
                 elements=None, sample=None, zero_sum_free: bool = True,
                 zero_divisor_free: bool = True):
        self.name = name
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self._elements = elements
        self._sample = sample
        self.finite = elements is not None
        self.zero_sum_free = zero_sum_free
        self.zero_divisor_free = zero_divisor_free

    def contains(self, a) -> bool:
        if not isinstance(a, int):
            # an adjoined infinite zero is the only element outside N
            return a == self.zero != 0
        return a in self._elements if self.finite else a >= 0

    def elements(self):
        """All carrier elements; only available for finite instances."""
        if not self.finite:
            raise SemiringError(f"{self.name} has an infinite carrier")
        return tuple(self._elements)

    def sample(self):
        """The elements law checks use: the given sample, else all."""
        return self.elements() if self._sample is None else self._sample

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
        if is_decimal(text):
            if self.contains(int(text)):
                return int(text)
        elif text == self.format(self.zero):
            return self.zero
        raise SemiringError(f"bad {self.name} literal {text!r}")

    def format(self, a) -> str:
        """The literal `parse` reads back as a; a bool is spelled as its
        int, which every carrier that holds it holds too."""
        return str(int(a)) if type(a) is bool else str(a)

    def _key(self):
        return (self.name, self.zero, self.one,
                self.elements() if self.finite else None,
                self.zero_sum_free, self.zero_divisor_free)

    def __eq__(self, other):
        return isinstance(other, Semiring) and self._key() == other._key()

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<semiring {self.name}>"


def _is_prime(m: int) -> bool:
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class IntegersMod(Semiring):
    """The residues mod m; for composite m neither zero-sum nor
    zero-divisor free, which makes it the stock source of anomalies."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise SemiringError("zmod needs a modulus >= 2")
        self.modulus = modulus
        super().__init__(f"zmod {modulus}", 0, 1,
                         lambda a, b: (a + b) % modulus,
                         lambda a, b: (a * b) % modulus,
                         elements=range(modulus), zero_sum_free=False,
                         zero_divisor_free=_is_prime(modulus))

    def __reduce__(self):  # the operations are closures
        return IntegersMod, (self.modulus,)


BOOLEAN = Semiring("boolean", 0, 1, or_, and_, elements=(0, 1))
NATURAL = Semiring("nat", 0, 1, add, mul, sample=(0, 1, 2, 3, 5, 7))
TROPICAL = Semiring("tropical", INF, 0, min, add, sample=(INF, 0, 1, 2, 5))
ARCTIC = Semiring("arctic", NEG_INF, 0, max, add,
                  sample=(NEG_INF, 0, 1, 2, 5))
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
        """Verify the homomorphism laws on the source's sample (all its
        elements when finite); raises on the first violation."""
        src, tgt, h = self.source, self.target, self.fn
        if h(src.zero) != tgt.zero:
            raise SemiringError("hom does not map zero to zero")
        if h(src.one) != tgt.one:
            raise SemiringError("hom does not map one to one")
        pool = src.sample()
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
