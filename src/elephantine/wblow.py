"""Weighted blow-ups of C^n / Z_r(a_1, ..., a_n).

For a primitive lattice vector v = (b_1, ..., b_n)/r with all b_i > 0, the
star subdivision at v gives a projective birational morphism covered by n
affine charts.  Chart i is C^n / Z_{b_i}(-b_1, ..., r, ..., -b_n) (r in the
i-th slot), and the chart map sends x_j -> x_j x_i^{b_j/r} for j != i and
x_i -> x_i^{b_i/r}.  The exceptional divisor appears in

    K_new = mu* K + ((b_1 + ... + b_n - r)/r) E
    D_new = mu* D - wt_v(f) E

for the strict transform of the divisor (f = 0)/Z_r.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import poly as P
from .cyclo import QuotientType, semi_invariant_character
from .poly import INFINITY, InvariantError, Poly


class BlowupError(ValueError):
    """Invalid blow-up data: bad weight vector, non-primitive, and so on."""


@dataclass(frozen=True)
class WeightVector:
    """Blow-up weights v = (b_1, ..., b_n)/r with every b_i > 0."""

    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))
        if self.denominator < 1:
            raise BlowupError("weight denominator must be positive")
        if not self.numerators or any(b <= 0 for b in self.numerators):
            raise BlowupError("all blow-up weights must be positive")

    @property
    def arity(self) -> int:
        return len(self.numerators)

    def __str__(self) -> str:
        body = ",".join(str(b) for b in self.numerators)
        if self.denominator == 1:
            return f"({body})"
        return f"1/{self.denominator}({body})"


_WV_RE = re.compile(r"^\s*(?:1\s*/\s*(\d+)\s*)?\(([^)]*)\)\s*$")


def parse_weight_vector(text: str) -> WeightVector:
    """Parse \"(b1,...,bn)\" or \"1/r(b1,...,bn)\" weight-vector syntax."""
    match = _WV_RE.match(text)
    if not match:
        raise BlowupError(f"cannot parse weight vector {text!r}")
    denom = int(match.group(1)) if match.group(1) else 1
    try:
        nums = tuple(int(part) for part in match.group(2).split(","))
    except ValueError as exc:
        raise BlowupError(f"bad weight list in {text!r}") from exc
    return WeightVector(nums, denom)


@dataclass(frozen=True)
class Chart:
    """Affine chart of the blow-up: its quotient type and monomial map."""

    index: int
    variable: str
    quotient: QuotientType
    # downstairs coordinate <- expression in chart coordinates, rendered with
    # the fractional exponents of the toric chart map
    map: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DiscrepancyReport:
    canonical: Fraction
    divisor_weight: Fraction
    pair: Fraction
    pair_is_integer: bool


def _check_compatible(q: QuotientType, v: WeightVector) -> None:
    if q.arity != v.arity:
        raise BlowupError("quotient type and weight vector arity mismatch")
    if v.denominator != q.r:
        raise BlowupError(
            f"weight denominator {v.denominator} must equal the group order {q.r}"
        )


def lattice_contains(q: QuotientType, numerators: tuple[int, ...]) -> bool:
    """Whether (c_1, ..., c_n)/r lies in N = Z^n + Z(a_1, ..., a_n)/r.

    Membership holds iff c_i = k a_i (mod r) for some single k.
    """
    for k in range(q.r):
        if all((c - k * a) % q.r == 0 for c, a in zip(numerators, q.weights)):
            return True
    return False


def check_primitive(q: QuotientType, v: WeightVector) -> bool:
    """True when v lies in N and no v/d with d >= 2 does.

    If v/d is in N then d divides every numerator, so it is enough to test
    the primes dividing gcd(b_1, ..., b_n).
    """
    _check_compatible(q, v)
    if not lattice_contains(q, v.numerators):
        return False
    g = 0
    for b in v.numerators:
        g = gcd(g, b)
    for p in _prime_divisors(g):
        reduced = tuple(b // p for b in v.numerators)
        if lattice_contains(q, reduced):
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def charts(q: QuotientType, v: WeightVector, vars: tuple[str, ...] | None = None) -> list[Chart]:
    """The n affine charts of the weighted blow-up."""
    if not check_primitive(q, v):
        raise BlowupError(f"weight vector {v} is not primitive in the lattice of {q}")
    n = v.arity
    names = tuple(vars) if vars is not None else default_vars(n)
    if len(names) != n:
        raise BlowupError("variable name count mismatch")
    out = []
    for i, b in enumerate(v.numerators):
        weights = tuple(q.r if j == i else -v.numerators[j] for j in range(n))
        quotient = QuotientType(b, weights)
        mapping = []
        for j, name in enumerate(names):
            power = f"{names[i]}^({v.numerators[j]}/{q.r})"
            mapping.append((name, power if j == i else f"{name}*{power}"))
        out.append(Chart(index=i, variable=names[i], quotient=quotient, map=tuple(mapping)))
    return out


def default_vars(n: int) -> tuple[str, ...]:
    base = ("x", "y", "z", "u", "v", "w")
    if n <= len(base):
        return base[:n]
    return tuple(f"x{i}" for i in range(n))


def canonical_discrepancy(q: QuotientType, v: WeightVector) -> Fraction:
    """Coefficient of the exceptional divisor in K: (sum(b_i) - r)/r."""
    if not check_primitive(q, v):
        raise BlowupError(f"weight vector {v} is not primitive in the lattice of {q}")
    return Fraction(sum(v.numerators) - q.r, q.r)


def divisor_weight(f: Poly, v: WeightVector):
    """wt_v(f) = min over the support of sum(b_j i_j)/r."""
    return P.weight(f, v.numerators, v.denominator)


def strict_transform(f: Poly, q: QuotientType, v: WeightVector, i: int) -> tuple[Poly, Fraction]:
    """Chart-i equation of the strict transform of (f = 0), with wt_v(f).

    Every term x^I maps to x_i^{sum(b_j I_j)/r} times the same monomial with
    the i-th exponent dropped; dividing by x_i^{wt_v(f)} leaves integral
    exponents exactly when f is semi-invariant.
    """
    _check_compatible(q, v)
    if f.arity != v.arity:
        raise BlowupError("divisor arity does not match blow-up arity")
    if f.is_zero():
        raise BlowupError("the zero polynomial does not define a divisor")
    if not 0 <= i < v.arity:
        raise BlowupError(f"chart index {i} out of range")
    m = divisor_weight(f, v)
    rm = m * q.r
    if rm.denominator != 1:
        raise InvariantError("r * wt_v(f) is not an integer")
    rm = rm.numerator
    out = {}
    for mono, coeff in f.terms.items():
        total = sum(b * e for b, e in zip(v.numerators, mono))
        excess = total - rm
        if excess % q.r != 0:
            raise BlowupError(
                "non-integral exponent in chart substitution: "
                f"term {mono} is not semi-invariant for this blow-up"
            )
        new = list(mono)
        new[i] = excess // q.r
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + coeff
    return Poly(f.vars, out), m


def pair_discrepancy(q: QuotientType, f: Poly, v: WeightVector) -> DiscrepancyReport:
    """Discrepancy report for the pair (ambient, divisor (f=0)).

    pair = canonical - wt_v(f).  Whether the ambient log divisor is Cartier
    cannot be seen here, so integrality of the pair discrepancy is reported
    as a flag rather than enforced.
    """
    if semi_invariant_character(f, q) is None:
        raise BlowupError("divisor equation is not semi-invariant for the quotient")
    canonical = canonical_discrepancy(q, v)
    wt = divisor_weight(f, v)
    if wt is INFINITY:
        raise BlowupError("the zero polynomial does not define a divisor")
    pair = canonical - wt
    return DiscrepancyReport(
        canonical=canonical,
        divisor_weight=wt,
        pair=pair,
        pair_is_integer=(pair.denominator == 1),
    )
