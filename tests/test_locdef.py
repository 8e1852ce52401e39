import random
from fractions import Fraction

import pytest

from elephantine import cyclo, locdef, poly as P
from elephantine.cyclo import QuotientType
from elephantine.poly import Poly, grlex_key

from _support import mono_str, random_poly, random_quotient_type, random_semi_invariant, random_unimodular_yz

V3 = ("x", "y", "z")


def _basis_strings(monos):
    return [mono_str(m, V3) for m in monos]


def test_quotient_dim_fermat_cubic():
    tq = locdef.quotient_dim(P.parse_poly("x^3+y^3+z^3", V3), "jacobian", 6)
    assert tq.dimension == 8
    assert set(_basis_strings(tq.basis)) == {"1", "x", "y", "z", "x*y", "x*z", "y*z", "x*y*z"}


def test_quotient_dim_ordinary_double_point():
    tq = locdef.quotient_dim(P.parse_poly("x^2+y^2+z^2", V3), "jacobian", 4)
    assert tq.dimension == 1
    assert _basis_strings(tq.basis) == ["1"]


def test_quotient_dim_e8_germ():
    # oracle: the Jacobian ideal is the monomial ideal (x, y^2, z^4); count
    # the complement among monomials of degree < 10
    complement = [
        m
        for m in locdef.monomials_below(3, 10)
        if m[0] == 0 and m[1] <= 1 and m[2] <= 3
    ]
    tq = locdef.quotient_dim(P.parse_poly("x^2+y^3+z^5", V3), "jacobian", 10)
    assert tq.dimension == len(complement) == 8
    assert set(tq.basis) == set(complement)


def test_milnor_numbers():
    assert locdef.milnor_number(P.parse_poly("x^2+y^2+z^2", V3)) == 1
    assert locdef.milnor_number(P.parse_poly("x^2+y^3+z^5", V3)) == 8
    assert locdef.milnor_number(P.parse_poly("x^2+y^2*z", V3)) is None


def test_milnor_rejects_nonvanishing_germ():
    with pytest.raises(locdef.LocdefError):
        locdef.milnor_number(P.parse_poly("1+x^2", V3))


def test_milnor_quasi_homogeneous_product_formula():
    # regression fixtures: product of (1/w_i - 1) over the normalizing weights
    cases = [
        ("x^2+y^3+z^5", (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
        ("x^3+y^3+z^3", (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
        ("x^2+y^3+z^4", (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))),
    ]
    for text, weights in cases:
        expected = 1
        for w in weights:
            expected *= 1 / w - 1
        assert locdef.milnor_number(P.parse_poly(text, V3)) == expected


def _per_degree_stable_dimension(f, ideal_tag, cap):
    # reference: one echelon for every N from 2 up to the cap, stopping at
    # the first two equal consecutive dimensions
    limit = locdef.default_cap() if cap is None else cap
    previous = None
    for n_trunc in range(2, limit + 1):
        dim = locdef.quotient_dim(f, ideal_tag, n_trunc).dimension
        if dim == previous:
            return dim
        previous = dim
    return None


# At the default cap of 24 a non-isolated germ in three variables costs the
# per-degree reference 1-2 s, so that cap is checked on germs in two.
@pytest.mark.parametrize("nvars, cap", [(3, 2), (3, 3), (3, 5), (3, 9), (2, 9), (2, None)])
def test_stable_dimension_matches_per_degree_loop(nvars, cap):
    vars = V3[:nvars]
    rng = random.Random(103)
    germs = []
    while len(germs) < 12:
        f = random_poly(rng, vars, max_terms=4, max_degree=5, nonzero=True)
        f = f - P.jet(f, 1)
        if not f.is_zero():
            germs.append(f)
    isolated = 0
    for f in germs:
        mu = locdef.milnor_number(f, cap)
        assert mu == _per_degree_stable_dimension(f, "jacobian", cap), P.render(f)
        assert locdef.tjurina_number(f, cap) == _per_degree_stable_dimension(f, "tjurina", cap)
        isolated += mu is not None
    if cap is None:
        assert 0 < isolated < len(germs)


@pytest.mark.parametrize("k", range(2, 9))
def test_milnor_number_at_the_cap_boundary(k):
    # A_k has basis 1, z, ..., z^(k-1): the plateau at degree k needs N = k + 1
    f = P.parse_poly(f"x^2+y^2+z^{k + 1}", V3)
    assert locdef.milnor_number(f, cap=k + 1) == k
    assert locdef.milnor_number(f, cap=k) is None


def test_tjurina_equals_milnor_for_quasi_homogeneous():
    f = P.parse_poly("x^2+y^3+z^5", V3)
    assert locdef.tjurina_number(f) == locdef.milnor_number(f) == 8


def test_quotient_dim_monotone():
    rng = random.Random(83)
    for _ in range(40):
        f = random_poly(rng, V3, max_terms=4, max_degree=5, nonzero=True)
        if f.constant_term() != 0:
            f = f - f.constant_term()
        if f.is_zero():
            continue
        dims = [locdef.quotient_dim(f, "jacobian", n).dimension for n in range(2, 8)]
        assert dims == sorted(dims)
        for n in range(2, 8):
            jac = locdef.quotient_dim(f, "jacobian", n).dimension
            tju = locdef.quotient_dim(f, "tjurina", n).dimension
            assert tju <= jac


def test_t1_eigenpart_fermat_cubic_full_partition():
    # the character filter splits the 8-dimensional Milnor algebra into the
    # invariant part {1, xy, xz, yz} and the anti-invariant part
    # {x, y, z, xyz}; the deformation directions of the quotient pair are the
    # anti-invariant classes
    f = P.parse_poly("x^3+y^3+z^3", V3)
    q = QuotientType(2, (1, 1, 1))
    report = locdef.t1_eigenpart(f, q)
    assert report.character == 1
    assert set(_basis_strings(report.basis)) == {"x", "y", "z", "x*y*z"}
    assert report.dimension == 4
    # the low-multiplicity directions within the eigenpart are x, y, z
    low = [m for m in report.basis if sum(m) < 2]
    assert set(_basis_strings(low)) == {"x", "y", "z"}
    assert all(
        locdef.in_m2_image(f, Poly(V3, {m: Fraction(1)})) == (sum(m) >= 2)
        for m in report.basis
    )


def test_t1_eigenpart_trivial_action():
    report = locdef.t1_eigenpart(P.parse_poly("x^2+y^2+z^2", V3), cyclo.smooth_type(3), 4)
    assert report.dimension == 1
    assert _basis_strings(report.basis) == ["1"]

    report = locdef.t1_eigenpart(P.parse_poly("x^2+y^3+z^4", V3), cyclo.smooth_type(3))
    assert report.dimension == 6
    assert set(_basis_strings(report.basis)) == {"1", "y", "z", "z^2", "y*z", "y*z^2"}


def test_t1_eigenpart_rejects_non_semi_invariant():
    with pytest.raises(locdef.LocdefError):
        locdef.t1_eigenpart(P.parse_poly("x+y^2", V3), QuotientType(2, (1, 1, 1)))


def test_eigenpart_dimensions_partition_quotient_dim():
    rng = random.Random(89)
    for _ in range(60):
        q = random_quotient_type(rng, 3, max_order=5)
        f = random_semi_invariant(rng, q, V3, min_order=1)
        if f.constant_term() != 0 or f.is_zero():
            continue
        quotient = locdef.quotient_dim(f, "jacobian", 8)
        total = 0
        for chi in range(q.r):
            total += sum(
                1 for m in quotient.basis if cyclo.monomial_character(m, q) == chi
            )
        assert total == quotient.dimension


def test_milnor_invariant_under_coordinate_changes():
    rng = random.Random(97)
    germs = [
        "x^2+y^2+z^2", "x^2+y^2+z^5", "x^2+y^3+z^4", "x^2+y^3+y*z^3",
        "x^2+y^3+z^5", "x^2+y^2*z+z^4", "x^2+y^2*z+z^6", "x^3+y^3+z^3",
    ]
    cases = 0
    while cases < 210:
        text = rng.choice(germs)
        f = P.parse_poly(text, V3)
        mu = locdef.milnor_number(f)
        a, b, c, d = random_unimodular_yz(rng)
        x = Poly.variable(V3, 0)
        y = Poly.variable(V3, 1)
        z = Poly.variable(V3, 2)
        g = P.substitute(f, [x, a * y + b * z, c * y + d * z])
        assert locdef.milnor_number(g) == mu
        cases += 1


def test_in_m2_image_examples():
    f = P.parse_poly("x^2+y^3+z^4", V3)
    assert locdef.in_m2_image(f, Poly.variable(V3, 0))
    assert not locdef.in_m2_image(f, Poly.variable(V3, 1))
    assert not locdef.in_m2_image(f, Poly.variable(V3, 2))


def test_in_m2_image_high_order_always_true():
    rng = random.Random(101)
    for _ in range(60):
        f = random_poly(rng, V3, max_terms=4, max_degree=4, nonzero=True)
        g = random_poly(rng, V3, max_terms=4, max_degree=5, nonzero=True)
        g = g - P.jet(g, 1)  # strip constant and linear part
        if g.is_zero():
            continue
        assert locdef.in_m2_image(f, g)


def test_in_m2_image_does_not_depend_on_truncation():
    rng = random.Random(107)
    answers = set()
    for _ in range(40):
        f = random_poly(rng, V3, max_terms=4, max_degree=3, nonzero=True)
        g = random_poly(rng, V3, max_terms=3, max_degree=3, nonzero=True)
        first = locdef.in_m2_image(f, g, 2)
        assert all(locdef.in_m2_image(f, g, n) == first for n in range(3, 11))
        answers.add(first)
    assert answers == {True, False}


def test_truncation_env_override(monkeypatch):
    monkeypatch.setenv("ELEPHANTINE_TRUNCATION", "8")
    assert locdef.default_truncation() == 8
    assert locdef.default_cap() == 24
    monkeypatch.setenv("ELEPHANTINE_TRUNCATION", "15")
    assert locdef.default_cap() == 30
    monkeypatch.setenv("ELEPHANTINE_TRUNCATION", "junk")
    with pytest.raises(ValueError):
        locdef.default_truncation()


def test_monomials_below_order():
    monos = locdef.monomials_below(3, 3)
    assert monos[:4] == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monos) == 10  # C(2,2)+C(3,2)+C(4,2) = 1+3+6
    assert len(set(monos)) == 10
    # the generation order is graded-lex order without a sort
    for nvars in range(1, 6):
        for bound in range(10):
            monos = locdef.monomials_below(nvars, bound)
            assert monos == sorted(monos, key=grlex_key)


def test_quotient_dim_is_reproducible():
    f = P.parse_poly("x^2+y^3+z^4", V3)
    first = locdef.quotient_dim(f, "jacobian", 9)
    second = locdef.quotient_dim(f, "jacobian", 9)
    assert first.basis == second.basis
    assert first.dimension == second.dimension
    assert all(sum(m) < 9 for m in first.basis)
