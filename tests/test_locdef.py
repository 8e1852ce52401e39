import itertools
import math
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


def _recorded_echelons(monkeypatch):
    # (N, dimension) of every quotient_dim call the stabilization makes
    calls = []
    quotient_dim = locdef.quotient_dim

    def recording(f, ideal_tag="jacobian", truncation=None):
        tq = quotient_dim(f, ideal_tag, truncation)
        calls.append((tq.truncation, tq.dimension))
        return tq

    monkeypatch.setattr(locdef, "quotient_dim", recording)
    return calls


def _brieskorn_pham(exponents, coeffs):
    vars = V3[:len(exponents)]
    terms = {tuple(a if j == i else 0 for j in range(len(vars))): Fraction(c)
             for i, (a, c) in enumerate(zip(exponents, coeffs))}
    return Poly(vars, terms)


def test_bezout_bound_is_sharp_on_brieskorn_pham():
    # mu(x^a + y^b + z^c) = (a-1)(b-1)(c-1) = prod deg of the partials
    cases = [(2, 2), (3, 5), (4, 7), (2, 2, 2), (2, 3, 5), (3, 3, 3), (2, 4, 6), (3, 4, 5),
             (2, 3, 13), (2, 2, 30)]
    for exponents in cases:
        f = _brieskorn_pham(exponents, [-3, 2, 5][:len(exponents)])
        expected = math.prod(a - 1 for a in exponents)
        assert locdef.bezout_bound(f) == expected, exponents
        assert locdef.milnor_number(f) == locdef.tjurina_number(f) == expected, exponents


def _semi_quasi_homogeneous(rng, nvars):
    # Brieskorn-Pham plus terms of weighted degree above 1 under a unipotent
    # linear change: isolated, with mu = prod (a_i - 1) whatever the extra
    # terms and the change
    exponents = [rng.randint(2, 7 - nvars) for _ in range(nvars)]
    f = _brieskorn_pham(exponents, [rng.choice([-2, -1, 1, 3]) for _ in exponents])
    upper = [m for m in locdef.monomials_below(nvars, max(exponents) + 2)
             if sum(Fraction(e, a) for e, a in zip(m, exponents)) > 1]
    for m in rng.sample(upper, 2):
        f = f + Poly(f.vars, {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))})
    images = [Poly.variable(f.vars, i) for i in range(nvars)]
    for i in range(nvars - 1):
        images[i] = images[i] + rng.randint(-2, 2) * images[i + 1]
    return P.substitute(f, images), math.prod(a - 1 for a in exponents)


@pytest.mark.parametrize("nvars", [2, 3])
def test_no_echelon_dimension_exceeds_the_bezout_bound(nvars, monkeypatch):
    rng = random.Random(149 + nvars)
    calls = _recorded_echelons(monkeypatch)
    for _ in range(12):
        f, mu = _semi_quasi_homogeneous(rng, nvars)
        bound = locdef.bezout_bound(f)
        assert bound == math.prod(P.degree(g) for g in P.partials(f))
        calls.clear()
        assert locdef.milnor_number(f) == mu, P.render(f)
        assert locdef.tjurina_number(f) in range(1, mu + 1)
        assert calls and all(dim <= bound for _, dim in calls), (P.render(f), bound, calls)
        # the plateau, at a degree <= mu <= B, shows by N = B + 1
        if bound <= 16:
            assert locdef.quotient_dim(f, "jacobian", bound + 1).dimension == mu


@pytest.mark.parametrize("text, ideal_tag, stable, ladder", [
    ("x^2+y^2", "jacobian", None, [4]),
    ("x^2+y^2*z", "jacobian", None, [4]),
    ("x^2+y^2*z", "tjurina", None, [4]),
    ("x*y*z", "jacobian", None, [4]),
    # B = 24 and the plateau is at degree 13: N = 13 + 24 - 24 + 1
    ("x^2+y^3+z^13", "jacobian", 24, [4, 6, 9, 13, 14]),
])
def test_stabilization_ladders(text, ideal_tag, stable, ladder, monkeypatch):
    calls = _recorded_echelons(monkeypatch)
    assert locdef._stable_dimension(P.parse_poly(text, V3), ideal_tag, None) == stable
    assert [n for n, _ in calls] == ladder


def _per_degree(tq):
    counts = [0] * tq.truncation
    for mono in tq.basis:
        counts[sum(mono)] += 1
    return tuple(counts)


def _full_echelon_stable_dimension(f, ideal_tag, cap, ladder):
    # the stabilization loop before the corank split, every echelon on f
    # itself; (N, basis count per degree) of each echelon goes to ladder
    limit = locdef.default_cap() if cap is None else cap
    if limit < 3:
        return None
    n_trunc = min(4, limit)
    bound = None
    while True:
        per_degree = _per_degree(locdef.quotient_dim(f, ideal_tag, n_trunc))
        ladder.append((n_trunc, per_degree))
        for d in range(2, n_trunc):
            if per_degree[d] == 0:
                return sum(per_degree[:d])
        dim = sum(per_degree)
        if bound is None:
            bound = locdef.bezout_bound(f)
            if cap is None and limit < bound + 1 <= locdef.BEZOUT_CAP_CEILING:
                limit = bound + 1
        if dim > bound or n_trunc == limit:
            return None
        n_trunc = min(n_trunc + n_trunc // 2, n_trunc + bound - dim + 1, limit)


def _dense_image(text):
    # a linear change of determinant -4 that fills in every monomial
    f = P.parse_poly(text, V3)
    x, y, z = (Poly.variable(V3, i) for i in range(3))
    return P.substitute(f, [x + y - z, x + z, -x + y + z])


def _quadratic_rank_germs(rng, nvars, rank):
    # sum of `rank` squares of independent linear forms (rows of a unipotent
    # L*U), plus terms of degree 3 to 7; some are isolated, some are not
    vars = V3[:nvars]
    lower = [[int(i == j) if i <= j else rng.choice([-1, 0, 1]) for j in range(nvars)]
             for i in range(nvars)]
    upper = [[int(i == j) if i >= j else rng.choice([-1, 0, 1]) for j in range(nvars)]
             for i in range(nvars)]
    forms = [Poly(vars, {tuple(int(t == k) for t in range(nvars)):
                         sum(lower[i][m] * upper[m][k] for m in range(nvars))
                         for k in range(nvars)})
             for i in range(nvars)]
    f = Poly.zero(vars)
    for form in forms[:rank]:
        f = f + Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) * form * form
    while True:
        g = random_poly(rng, vars, max_terms=3, max_degree=7)
        g = g - P.jet(g, 2)
        if not (f + g).is_zero():
            return f + g


def _corank_corpus():
    rng = random.Random(157)
    germs = [_quadratic_rank_germs(rng, nvars, rank)
             for nvars in (2, 3) for rank in range(nvars + 1) for _ in range(3)]
    germs += [P.parse_poly(text, V3) for text in (
        # quadratic parts with products only
        "x*y+z^7", "x*z+y^3", "y*z+x^4-x^2*y", "x*y+y*z+x^5",
        # non-isolated
        "x^2+y^2", "x^2+y^2*z", "(x+y^2)^2", "x*y", "6/5*y^3*z-x*y*z-7/3*x*z^2-3/2*x*z",
    )]
    germs += [P.parse_poly("x*y", V3[:2])]
    # dense images of A3, D5, E6, E7 and E8
    germs += [_dense_image(text) for text in (
        "x^2+y^2+z^4", "x^2+y^2*z+z^4", "x^2+y^3+z^4", "x^2+y^3+y*z^3", "x^2+y^3+z^5")]
    return germs


@pytest.mark.parametrize("cap", [None, 3, 5, 9])
def test_corank_split_matches_the_full_echelon(cap, monkeypatch):
    germs = _corank_corpus()
    if cap is not None:
        # its full echelon at N = 19 takes over 10 s; its default-cap run is
        # pinned against mu = tau = 24 below
        germs.append(_dense_image("x^2+y^3+z^13"))
    expected = []
    for f in germs:
        for ideal_tag in ("jacobian", "tjurina"):
            ladder = []
            stable = _full_echelon_stable_dimension(f, ideal_tag, cap, ladder)
            expected.append((f, ideal_tag, stable, ladder))
    ladder = []
    quotient_dim = locdef.quotient_dim

    def recording(g, ideal_tag="jacobian", truncation=None):
        tq = quotient_dim(g, ideal_tag, truncation)
        ladder.append((tq.truncation, _per_degree(tq)))
        return tq

    monkeypatch.setattr(locdef, "quotient_dim", recording)
    answers = set()
    for f, ideal_tag, stable, reference in expected:
        ladder.clear()
        number = locdef.milnor_number if ideal_tag == "jacobian" else locdef.tjurina_number
        assert (number(f, cap), ladder) == (stable, reference), (P.render(f), ideal_tag)
        answers.add(stable is None)
    assert answers == {True, False}


def test_dense_image_echelons_in_two_variables(monkeypatch):
    # (x+y-z)^2 + (x+z)^3 + (-x+y+z)^13 is x^2 + y^3 + z^13 after a linear
    # change: mu = tau = 1 * 2 * 12.  A three-variable echelon of it takes
    # about 27 s, so one would fail here at once.
    f = P.parse_poly("(x+y-z)^2+(x+z)^3+(-x+y+z)^13", V3)
    quotient_dim = locdef.quotient_dim

    def corank_only(g, ideal_tag="jacobian", truncation=None):
        assert g.arity <= 2, (P.render(g), truncation)
        return quotient_dim(g, ideal_tag, truncation)

    monkeypatch.setattr(locdef, "quotient_dim", corank_only)
    assert locdef.milnor_number(f) == locdef.tjurina_number(f) == 24


def test_zero_partial_at_a_smooth_point():
    # d/dz f = 0 sets B = 0, which a smooth point meets with mu = 0
    f = P.parse_poly("y+x^2", V3)
    assert locdef.bezout_bound(f) == 0
    assert locdef.milnor_number(f) == locdef.tjurina_number(f) == 0


def test_default_limit_rises_to_the_bezout_bound_up_to_the_ceiling():
    # A_29 has B = 29 and its plateau at degree 29, past the default cap 24
    f = P.parse_poly("x^2+y^2+z^30", V3)
    assert locdef.milnor_number(f) == locdef.tjurina_number(f) == 29
    assert locdef.milnor_number(f, cap=24) is None
    # B + 1 = 41 is above the ceiling: the default cap stays, undecided
    g = P.parse_poly("x^2+y^2+z^41", V3)
    assert locdef.bezout_bound(g) + 1 > locdef.BEZOUT_CAP_CEILING
    assert locdef.milnor_number(g) is None


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


class _FractionRowSpace:
    """Reference echelon over Q on exponent tuples, pivoting on grlex_key."""

    def __init__(self):
        self.pivots = {}

    def insert(self, row):
        row = dict(row)
        while row:
            lead = min(row, key=grlex_key)
            pivot = self.pivots.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                self.pivots[lead] = {m: c * inv for m, c in row.items()}
                return True
            factor = row[lead]
            for mono, coeff in pivot.items():
                value = row.get(mono, Fraction(0)) - factor * coeff
                if value:
                    row[mono] = value
                else:
                    row.pop(mono, None)
        return False


def _reference_rows(f, ideal_tag, bound):
    gens = P.partials(f) + ([f] if ideal_tag == "tjurina" else [])
    space = _FractionRowSpace()
    for gen in gens:
        if gen.is_zero():
            continue
        for mono in locdef.monomials_below(f.arity, bound - P.order(gen)):
            row = {}
            for gm, gc in gen.terms.items():
                key = P.monomial_mul(mono, gm)
                if sum(key) < bound:
                    row[key] = row.get(key, Fraction(0)) + gc
            if row:
                space.insert(row)
    return space


def _reference_basis(f, ideal_tag, bound):
    pivots = _reference_rows(f, ideal_tag, bound).pivots
    return tuple(m for m in locdef.monomials_below(f.arity, bound) if m not in pivots)


def _reference_in_m2_image(f, g, truncation):
    bound = min(truncation, 2)
    return not _reference_rows(f, "jacobian", bound).insert(P.jet(g, bound - 1).terms)


def _differential_germs(nvars):
    # non-isolated, isolated, and dense ones with six-digit numerators over
    # two-digit denominators; dense three-variable germs with more terms
    # cost the Fraction reference tens of seconds
    texts = {
        2: ["x^2*y", "x^2*y+x^2*y^3", "x*y", "x^3+y^7", "5*x^5-3/7*x^2*y^3+22/9*x*y^4",
            "-101483/3*x^2*y-264273/26*x*y^2+518149/9*y^3+89188/43*x^2-325853/8*y^2",
            "335585/43*x^2*y^2-737748/13*x*y^3+50733/23*y^4"],
        3: ["x^2+y^2*z", "x*y*z", "x^2+y^3+z^5",
            "6/5*y^3*z-x*y*z-7/3*x*z^2-3/2*x*z",
            "318311/9*z^4+765184/67*y*z^2+335585/43*x^2+182623/23*y^2"],
    }[nvars]
    vars = V3[:nvars]
    germs = [P.parse_poly(text, vars) for text in texts]
    rng = random.Random(131 + nvars)
    while len(germs) < len(texts) + 3:
        f = random_poly(rng, vars, max_terms=4, max_degree=5, nonzero=True)
        f = f - P.jet(f, 1)
        if not f.is_zero():
            germs.append(f)
    return germs


@pytest.mark.parametrize("nvars", [2, 3])
def test_quotient_dim_matches_fraction_reference(nvars):
    for f in _differential_germs(nvars):
        for ideal_tag in ("jacobian", "tjurina"):
            for n_trunc in range(2, 14):
                expected = _reference_basis(f, ideal_tag, n_trunc)
                got = locdef.quotient_dim(f, ideal_tag, n_trunc)
                assert got.basis == expected, (P.render(f), ideal_tag, n_trunc)
                assert got.dimension == len(expected)


def test_in_m2_image_matches_fraction_reference():
    rng = random.Random(137)
    answers = set()
    for i in range(80):
        vars = V3[:2 + i % 2]
        f = random_poly(rng, vars, max_terms=5, max_degree=3, nonzero=True, max_denominator=9)
        g = random_poly(rng, vars, max_terms=4, max_degree=3, nonzero=True, max_denominator=9)
        for n_trunc in (1, 2, 3):
            expected = _reference_in_m2_image(f, g, n_trunc)
            assert locdef.in_m2_image(f, g, n_trunc) == expected, (P.render(f), P.render(g))
            answers.add(expected)
    assert answers == {True, False}


@pytest.mark.parametrize("nvars", range(1, 5))
def test_grlex_keys(nvars):
    # the cached keys below degree N are poly's layout at cap N - 1 (its own
    # properties are tested in test_poly.test_grlex_layout): in grlex order,
    # decoding back, and cut at each degree by a binomial count
    rng = random.Random(139 + nvars)
    for bound in range(1, 11):
        grlex, keys = locdef._grlex(nvars, bound)
        assert (grlex.base, grlex.limit) == (bound + 1, (bound - 1) * grlex.lead + 1)
        below = locdef.monomials_below(nvars, bound)
        shuffled = rng.sample(below, len(below))
        assert sorted(shuffled, key=grlex.key) == sorted(shuffled, key=grlex_key)
        assert keys == tuple(map(grlex.key, below)) == tuple(sorted(keys))
        assert grlex.monomials(keys) == below
        for degree in range(1, bound + 1):
            prefix = keys[:math.comb(degree - 1 + nvars, nvars)]
            assert prefix == tuple(k for k, m in zip(keys, below) if sum(m) < degree)
