"""Shared generators for the seeded randomized suites."""

from __future__ import annotations

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
