"""Shared generators for the seeded randomized suites."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from elephantine import cyclo, poly as P, wblow
from elephantine.poly import Poly


def random_monomial(rng: random.Random, nvars: int, max_degree: int) -> tuple[int, ...]:
    degree = rng.randint(0, max_degree)
    expo = [0] * nvars
    for _ in range(degree):
        expo[rng.randrange(nvars)] += 1
    return tuple(expo)


def random_poly(
    rng: random.Random,
    vars: tuple[str, ...],
    max_terms: int = 5,
    max_degree: int = 6,
    nonzero: bool = False,
    max_denominator: int = 5,
) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, max_denominator))
        terms[random_monomial(rng, len(vars), max_degree)] = coeff
    f = Poly(vars, terms)
    if nonzero and f.is_zero():
        terms[random_monomial(rng, len(vars), max_degree)] = Fraction(1)
        f = Poly(vars, terms)
    return f


def random_quotient_type(rng: random.Random, arity: int, max_order: int = 8) -> cyclo.QuotientType:
    r = rng.randint(1, max_order)
    return cyclo.QuotientType(r, tuple(rng.randrange(r) if r > 1 else 0 for _ in range(arity)))


def random_semi_invariant(
    rng: random.Random,
    q: cyclo.QuotientType,
    vars: tuple[str, ...],
    max_terms: int = 4,
    max_degree: int = 6,
    min_order: int = 0,
) -> Poly:
    """A nonzero polynomial whose terms share one character of the action."""
    while True:
        seed = random_monomial(rng, q.arity, max_degree)
        if sum(seed) < min_order:
            continue
        chi = cyclo.monomial_character(seed, q)
        terms = {seed: Fraction(rng.randint(1, 5))}
        for _ in range(rng.randint(0, max_terms - 1)):
            mono = random_monomial(rng, q.arity, max_degree)
            if sum(mono) >= min_order and cyclo.monomial_character(mono, q) == chi:
                terms[mono] = Fraction(rng.randint(-5, 5) or 1)
        return Poly(vars, terms)


def random_primitive_weights(rng: random.Random, q: cyclo.QuotientType) -> wblow.WeightVector:
    """A primitive lattice vector with positive entries for the given type."""
    r = q.r
    while True:
        k = rng.randrange(r)
        nums = []
        for a in q.weights:
            b = (k * a) % r + r * rng.randint(0, 2)
            nums.append(b if b > 0 else r)
        # peel off any divisor that stays inside the lattice
        changed = True
        while changed:
            changed = False
            g = 0
            for b in nums:
                g = gcd(g, b)
            for p in wblow._prime_divisors(g):
                reduced = [b // p for b in nums]
                if wblow.lattice_contains(q, tuple(reduced)):
                    nums = reduced
                    changed = True
                    break
        v = wblow.WeightVector(tuple(nums), r)
        if wblow.check_primitive(q, v):
            return v


def random_unimodular_yz(rng: random.Random) -> tuple[int, int, int, int]:
    """Integer 2x2 matrix with determinant +-1 and small entries."""
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if a * d - b * c in (1, -1):
            return a, b, c, d


def mono_str(mono: tuple[int, ...], vars: tuple[str, ...]) -> str:
    return P.render(Poly(vars, {mono: Fraction(1)}))


# -- Kouchnirenko's formula: an oracle for the Milnor number -----------------
#
# For a convenient germ f in n variables (a pure power of every variable)
# that is Newton non-degenerate, mu(f) is the Newton number
#     nu = sum_k (-1)^(n-k) * k! * V_k + (-1)^n,
# V_k the k-volume under the Newton boundary, summed over the coordinate
# k-planes (Kouchnirenko, "Polyedres de Newton et nombres de Milnor", Invent.
# Math. 32 (1976)): 6V_3 - 2V_2 + V_1 - 1 in 3 variables, 2V_2 - a - b + 1 in 2.


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _normal(points):
    """An integer normal to the affine hull of 2 points of Z^2 or 3 points of Z^3."""
    u = [a - b for a, b in zip(points[1], points[0])]
    if len(u) == 2:
        return (u[1], -u[0])
    v = [a - b for a, b in zip(points[2], points[0])]
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _det(rows):
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return _dot(rows[0], _normal(((0, 0, 0), rows[1], rows[2])))


def compact_facets(support):
    """The compact facets of the Newton polyhedron of a support in Z^2 or Z^3,
    each as the set of the support points on it, by brute force over the
    n-subsets: a face is compact when its normal is positive in every
    coordinate, and for a convenient support every compact facet has one."""
    facets = set()
    for chosen in itertools.combinations(support, len(support[0])):
        normal = _normal(chosen)
        if all(c < 0 for c in normal):
            normal = tuple(-c for c in normal)
        if not all(c > 0 for c in normal):
            continue
        level = _dot(normal, chosen[0])
        if all(_dot(normal, s) >= level for s in support):
            facets.add(frozenset(s for s in support if _dot(normal, s) == level))
    return facets


def newton_number(f: Poly) -> tuple[int, int] | None:
    """Kouchnirenko's nu(f) and the count of compact facets, for a germ in 2
    or 3 variables; None unless f is convenient and certified.

    The certificate asks every compact facet in a coordinate k-plane (of f,
    k = n, and of each restriction) to be a simplex whose k vertices are its
    only support points.  Each face function then has linearly independent
    exponents, so it has no critical point in the torus whatever its nonzero
    coefficients: f is non-degenerate, and mu(f) = nu(f).  k! V_k sums |det|
    over the simplices spanned by the origin and those facets.
    """
    n = f.arity
    support = list(f.terms)
    nu, facet_count = (-1) ** n, 0
    for k in range(1, n + 1):
        for axes in itertools.combinations(range(n), k):
            points = [tuple(m[a] for a in axes) for m in support
                      if not any(m[b] for b in range(n) if b not in axes)]
            if k == 1:
                powers = [p[0] for p in points if p[0]]
                if not powers:
                    return None  # not convenient
                volume = min(powers)
            else:
                facets = compact_facets(points)
                if any(len(facet) != k for facet in facets):
                    return None
                volume = sum(abs(_det(sorted(facet))) for facet in facets)
                facet_count = len(facets)
            nu += (-1) ** (n - k) * volume
    return nu, facet_count
