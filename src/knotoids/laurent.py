"""Exact sparse Laurent-polynomial arithmetic for the invariant values.

Coefficients are Python integers, so state sums never overflow.  Zero
coefficients are never stored: the empty term map is the zero polynomial.
Polynomials are immutable: ``terms`` is a read-only mapping and no
attribute can be assigned, so a value's hash never changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from types import MappingProxyType


class _Frozen:
    """Refuses attribute assignment; ``__init__`` sets ``terms`` once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # A mappingproxy cannot be pickled; the terms are rebuilt from a dict.
        return type(self), (dict(self.terms),)


class Laurent(_Frozen):
    """A one-variable Laurent polynomial as a map exponent -> coefficient."""

    VAR = "x"

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        clean = {e: c for e, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.VAR == other.VAR and self.terms == other.terms

    def __hash__(self):
        return hash((self.VAR, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return type(self)(out)

    def __neg__(self):
        return type(self)({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({e: c * other for e, c in self.terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return type(self)(out)

    __rmul__ = __mul__

    def shift(self, exponent: int, coefficient: int = 1):
        """Multiply by ``coefficient * VAR**exponent``."""
        return type(self)({e + exponent: c * coefficient for e, c in self.terms.items()})

    def substitute_inverse(self):
        """The image under VAR -> VAR**-1."""
        return type(self)({-e: c for e, c in self.terms.items()})

    def evaluate_int(self, value: int) -> int:
        """Evaluate at an integer (negative exponents need value in {1,-1})."""
        total = 0
        for e, c in self.terms.items():
            if e >= 0:
                total += c * value**e
            elif value in (1, -1):
                total += c * value ** (-e)
            else:
                raise ValueError("negative exponents need value +-1")
        return total

    def max_degree(self) -> int:
        """Largest exponent with a nonzero coefficient; 0 for the zero polynomial."""
        return max(self.terms) if self.terms else 0

    def is_symmetric(self) -> bool:
        """True when coefficient(VAR**k) == coefficient(VAR**-k) for all k."""
        return all(self.terms.get(-e, 0) == c for e, c in self.terms.items())

    CONSTANT_LAST = False

    def render(self) -> str:
        """Compact text, descending powers: e.g. ``t^2+2t+2t^-1+t^-2-6``."""
        if not self.terms:
            return "0"
        exponents = sorted(self.terms, reverse=True)
        if self.CONSTANT_LAST and 0 in self.terms:
            exponents = [e for e in exponents if e != 0] + [0]
        parts = []
        for e in exponents:
            c = self.terms[e]
            var = "" if e == 0 else self.VAR if e == 1 else f"{self.VAR}^{e}"
            body = var if abs(c) == 1 and var else f"{abs(c)}{var}"
            parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts).removeprefix("+")

    def to_json(self) -> dict[str, int]:
        return {str(e): self.terms[e] for e in sorted(self.terms)}

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class LaurentA(Laurent):
    """Laurent polynomial in the bracket variable A."""

    VAR = "A"


class AffinePoly(Laurent):
    """Laurent polynomial in the affine-index variable t.

    Rendered with the constant term last, the customary shape of the
    defining sum (each crossing contributes t^w - 1).
    """

    VAR = "t"
    CONSTANT_LAST = True


def loop_value() -> LaurentA:
    """The bracket value of one extra circle: ``-A^2 - A^-2``."""
    return LaurentA({2: -1, -2: -1})


@cache
def _d_power(j: int) -> tuple[tuple[int, int], ...]:
    """The (exponent, coefficient) terms of d**j, d = -A^2 - A^-2, highest first."""
    sign = -1 if j & 1 else 1  # d**j = (-1)**j * sum of C(j, i) A**(2j - 4i)
    return tuple((2 * j - 4 * i, sign * comb(j, i)) for i in range(j + 1))


def state_sum(counts: dict[tuple[int, int], int]) -> LaurentA:
    """Sum of ``count * A**sigma * d**(components - 1)`` over ``(sigma, components)``."""
    out: dict[int, int] = {}
    get = out.get
    for (sigma, comps), count in counts.items():
        for e, c in _d_power(comps - 1 if comps > 1 else 0):  # no component reads as d**0
            e += sigma
            out[e] = get(e, 0) + c * count
    return LaurentA(out)


def writhe_normalize(value, w: int):
    """Multiply a LaurentA or ArrowPoly by ``(-A^3)**(-w)``, exactly."""
    sign = -1 if w % 2 else 1
    if isinstance(value, ArrowPoly):
        return ArrowPoly({m: c.shift(-3 * w, sign) for m, c in value.terms.items()})
    return value.shift(-3 * w, sign)


@dataclass(frozen=True)
class ArrowMonomial:
    """A product of circle variables K_i^j and long-segment variables L_i.

    ``k_factors`` is a sorted tuple of (index, multiplicity) pairs and
    ``lambda_factors`` a sorted tuple of indices (a multiset; standard
    single-leg knotoids produce at most one L factor per state).
    """

    k_factors: tuple[tuple[int, int], ...] = ()
    lambda_factors: tuple[int, ...] = ()

    @staticmethod
    def build(k_indices=(), lambda_indices=()) -> "ArrowMonomial":
        counts = Counter(k_indices)
        return ArrowMonomial(tuple(sorted(counts.items())), tuple(sorted(lambda_indices)))

    def is_empty(self) -> bool:
        return not self.k_factors and not self.lambda_factors

    def k_degree(self) -> int:
        return sum(i * j for i, j in self.k_factors)

    def lambda_degree(self) -> int:
        return max(self.lambda_factors, default=0)

    def merge(self, other: "ArrowMonomial") -> "ArrowMonomial":
        counts = dict(self.k_factors)
        for i, j in other.k_factors:
            counts[i] = counts.get(i, 0) + j
        return ArrowMonomial(
            tuple(sorted(counts.items())),
            tuple(sorted(self.lambda_factors + other.lambda_factors)),
        )

    def render(self) -> str:
        if self.is_empty():
            return "1"
        parts = [
            f"K_{i}" if j == 1 else f"K_{i}^{j}" for i, j in self.k_factors
        ]
        parts.extend(f"L_{i}" for i in self.lambda_factors)
        return "".join(parts)

    def sort_key(self):
        return (self.k_degree(), self.lambda_degree(), self.k_factors, self.lambda_factors)


class ArrowPoly(_Frozen):
    """A polynomial over the A-ring with ArrowMonomial variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ArrowMonomial, LaurentA] | None = None):
        clean = {m: c for m, c in (terms or {}).items() if not c.is_zero()}
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def zero(cls) -> "ArrowPoly":
        return cls()

    @classmethod
    def one(cls) -> "ArrowPoly":
        return cls({ArrowMonomial(): LaurentA.one()})

    def scalar_part(self) -> LaurentA:
        return self.terms.get(ArrowMonomial(), LaurentA.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ArrowPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(((m, c) for m, c in self.terms.items()),
                                 key=lambda mc: mc[0].sort_key())))

    def __add__(self, other: "ArrowPoly") -> "ArrowPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, LaurentA.zero()) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return ArrowPoly(out)

    def __neg__(self) -> "ArrowPoly":
        return ArrowPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ArrowPoly") -> "ArrowPoly":
        return self + (-other)

    def __mul__(self, other: "ArrowPoly") -> "ArrowPoly":
        out: dict[ArrowMonomial, LaurentA] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.merge(m2)
                s = out.get(m, LaurentA.zero()) + c1 * c2
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return ArrowPoly(out)

    def substitute_lambda_with_k(self) -> "ArrowPoly":
        """Replace every L_i by K_i (the virtual-closure specialization)."""
        out = ArrowPoly.zero()
        for m, c in self.terms.items():
            k_indices = [i for i, j in m.k_factors for _ in range(j)] + list(m.lambda_factors)
            out = out + ArrowPoly({ArrowMonomial.build(k_indices, ()): c})
        return out

    def coefficient_sum(self) -> LaurentA:
        """Every K_i and L_i set to 1: the bracket polynomial of the same diagram."""
        return sum(self.terms.values(), LaurentA.zero())

    def k_degree(self) -> int:
        return max((m.k_degree() for m in self.terms), default=0)

    def lambda_degree(self) -> int:
        return max((m.lambda_degree() for m in self.terms), default=0)

    def render(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda m: m.sort_key())
        parts = []
        for m in ordered:
            coeff = self.terms[m]
            if m.is_empty():
                parts.append(coeff.render())
                continue
            if len(coeff.terms) == 1 and coeff.terms == {0: 1}:
                parts.append(m.render())
            else:
                parts.append(f"({coeff.render()}){m.render()}")
        return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])

    def to_json(self):
        ordered = sorted(self.terms, key=lambda m: m.sort_key())
        return [
            {
                "k": {str(i): j for i, j in m.k_factors},
                "l": list(m.lambda_factors),
                "coeff": self.terms[m].to_json(),
            }
            for m in ordered
        ]

    def __repr__(self):
        return f"ArrowPoly({self.render()})"

