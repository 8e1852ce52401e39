import itertools
import random
from math import gcd

import pytest

from elephantine import cyclo, poly as P
from elephantine.cyclo import QuotientType, QuotientTypeError

from _support import random_quotient_type

V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "u")


def test_monomial_character():
    assert cyclo.monomial_character((1, 1, 1), QuotientType(2, (1, 1, 1))) == 1
    assert cyclo.monomial_character((3, 0, 2), QuotientType(1, (0, 0, 0))) == 0
    assert cyclo.monomial_character((1, 0, 0, 0), QuotientType(4, (1, 3, 2, 1))) == 1


def test_monomial_character_additive():
    rng = random.Random(3)
    for _ in range(200):
        q = random_quotient_type(rng, 3)
        m1 = tuple(rng.randint(0, 4) for _ in range(3))
        m2 = tuple(rng.randint(0, 4) for _ in range(3))
        total = tuple(a + b for a, b in zip(m1, m2))
        assert cyclo.monomial_character(total, q) == (
            cyclo.monomial_character(m1, q) + cyclo.monomial_character(m2, q)
        ) % q.r


def test_semi_invariant_character():
    germ = P.parse_poly("x^2+y^2+z^3+u^2", V4)
    assert cyclo.semi_invariant_character(germ, QuotientType(4, (1, 3, 2, 1))) == 2
    fermat = P.parse_poly("x^3+y^3+z^3", V3)
    assert cyclo.semi_invariant_character(fermat, QuotientType(2, (1, 1, 1))) == 1
    mixed = P.parse_poly("x+y^2", V3)
    assert cyclo.semi_invariant_character(mixed, QuotientType(2, (1, 1, 1))) is None
    assert cyclo.semi_invariant_character(P.Poly.zero(V3), QuotientType(5, (1, 2, 3))) == 0


def test_normalize_examples():
    assert cyclo.normalize_type(QuotientType(3, (2, 1, 2))).weights == (1, 1, 2)
    assert cyclo.normalize_type(QuotientType(2, (1, 1, 1))).weights == (1, 1, 1)
    a = cyclo.normalize_type(QuotientType(7, (1, 5, 5)))
    b = cyclo.normalize_type(QuotientType(7, (1, 3, 4)))
    assert a != b


def test_normalize_brute_force_orbit():
    # oracle: enumerate the full orbit under unit multiples and permutations
    rng = random.Random(5)
    for _ in range(220):
        r = rng.randint(1, 30)
        weights = tuple(rng.randrange(r) if r > 1 else 0 for _ in range(3))
        q = QuotientType(r, weights)
        canon = cyclo.normalize_type(q)
        assert cyclo.normalize_type(canon) == canon
        orbit = set()
        for u in range(1, r + 1):
            if gcd(u, r) != 1:
                continue
            scaled = tuple((u * w) % r for w in weights)
            for perm in itertools.permutations(scaled):
                orbit.add(perm)
                assert cyclo.normalize_type(QuotientType(r, perm)) == canon
        assert canon.weights in orbit
        assert canon.weights == min(tuple(sorted(o)) for o in orbit)


def test_terminal_examples():
    assert cyclo.is_terminal_3fold(QuotientType(2, (1, 1, 1)))
    assert cyclo.is_terminal_3fold(QuotientType(5, (1, 2, 3)))
    assert not cyclo.is_terminal_3fold(QuotientType(2, (1, 1, 0)))
    assert cyclo.is_terminal_3fold(QuotientType(1, (0, 0, 0)))
    assert cyclo.is_terminal_3fold(QuotientType(7, (1, 3, 4)))
    # 1/7(1,5,5) and 1/5(1,1,2) are klt but not terminal: the age of the
    # cube of the generator is 5/7, respectively 4/5 for the generator
    assert not cyclo.is_terminal_3fold(QuotientType(7, (1, 5, 5)))
    assert not cyclo.is_terminal_3fold(QuotientType(5, (1, 1, 2)))
    assert cyclo.is_terminal_3fold(QuotientType(3, (1, 2, 1)))


def test_terminal_matches_age_criterion_up_to_20():
    # Reid--Tai oracle: terminal iff sum of fractional ages exceeds 1 for
    # every nontrivial group element; integer form avoids Fractions.  A
    # non-isolated type has a fixed curve and is never terminal.
    non_isolated = 0
    for r in range(1, 21):
        for weights in itertools.product(range(r), repeat=3):
            q = QuotientType(r, weights)
            if not q.is_isolated():
                assert not cyclo.is_terminal_3fold(q), q
                non_isolated += 1
                continue
            oracle = all(sum((k * a) % r for a in weights) > r for k in range(1, r))
            assert cyclo.is_terminal_3fold(q) == oracle, q
    assert non_isolated > 1000


def test_terminal_requires_arity_3():
    with pytest.raises(QuotientTypeError):
        cyclo.is_terminal_3fold(QuotientType(4, (1, 3, 2, 1)))


def test_weights_reduced_mod_r():
    assert QuotientType(3, (4, -1, 7)).weights == (1, 2, 1)
    assert QuotientType(1, (5, 9, 2)).weights == (0, 0, 0)


def test_isolated_flag():
    assert not QuotientType(2, (1, 1, 0)).is_isolated()
    assert QuotientType(5, (1, 2, 3)).is_isolated()
    assert QuotientType(1, (0, 0, 0)).is_isolated()


def test_parse_render_round_trip():
    for text in ["1/4(1,3,2,1)", "1/2(1,1,1)", "1/7(1,5,5)", "1/1(0,0,0)"]:
        q = cyclo.parse_type(text)
        assert cyclo.render_type(q) == text
    with pytest.raises(QuotientTypeError):
        cyclo.parse_type("4(1,2)")
    with pytest.raises(QuotientTypeError):
        cyclo.parse_type("1/4()")
