import random
from fractions import Fraction

import pytest

from elephantine import cyclo, duval, locdef, poly as P, wblow
from elephantine.duval import (
    DU_VAL,
    NOT_DU_VAL,
    SMOOTH,
    DuvalError,
    NonIsolatedGermError,
    TruncationError,
)
from elephantine.poly import Poly
from elephantine.wblow import WeightVector

from _support import random_poly, random_unimodular_yz

V2 = ("y", "z")
V3 = ("x", "y", "z")


def classify(text, truncation=None):
    return duval.classify_germ(P.parse_poly(text, V3), truncation)


def test_high_multiplicity_germ():
    report = classify("x^3+y^3+z^3")
    assert report.verdict == NOT_DU_VAL
    assert report.recommendation.weights == (1, 1, 1)
    assert report.recommendation.discrepancy == -1


def test_high_multiplicity_discrepancy_is_two_minus_mult():
    report = classify("x^4+y^5+z^4")
    assert report.recommendation.weights == (1, 1, 1)
    assert report.recommendation.discrepancy == 2 - 4


def test_ordinary_double_point():
    report = classify("x^2+y^2+z^2")
    assert report.verdict == DU_VAL
    assert (report.family, report.index) == ("A", 1)
    assert report.recommendation is None


def test_smooth_germ():
    assert classify("x+y^3").verdict == SMOOTH


def test_split_then_classify_matches_plain_form():
    # complete the square in (x+y)^2 and compare against x^2+y^3+z^4
    mixed = classify("x^2+2*x*y+y^2+y^3+z^4")
    plain = classify("x^2+y^3+z^4")
    assert (mixed.verdict, mixed.family, mixed.index) == (plain.verdict, "E", 6)
    assert mixed.milnor == plain.milnor == 6
    assert locdef.milnor_number(P.parse_poly("x^2+2*x*y+y^2+y^3+z^4", V3)) == 6


def test_double_point_cases():
    assert classify("x^2+y^3+z^4").label == "E6"
    assert classify("x^2+y^3+y*z^3").label == "E7"
    assert classify("x^2+y^3+z^5").label == "E8"
    report = classify("x^2+y^3+y*z^4+z^6")
    assert report.verdict == NOT_DU_VAL
    assert report.recommendation.weights == (3, 2, 1)
    assert report.recommendation.discrepancy == -1
    report = classify("x^2+y^3+z^8")  # gamma = delta = 0 branch
    assert report.verdict == NOT_DU_VAL
    assert report.recommendation.weights == (3, 2, 1)


def test_classify_double_point_direct():
    g = P.parse_poly("y^3+z^4", V2)
    assert duval.classify_double_point(g).label == "E6"
    assert duval.classify_double_point(P.parse_poly("y^3+y*z^3", V2)).label == "E7"
    report = duval.classify_double_point(P.parse_poly("y^3+y*z^4+z^6", V2))
    assert report.verdict == NOT_DU_VAL and report.recommendation.weights == (3, 2, 1)
    report = duval.classify_double_point(P.parse_poly("y*(z^2+y^2)", V2))
    assert (report.family, report.index) == ("D", 4)
    assert report.milnor == 4
    report = duval.classify_double_point(P.parse_poly("y^4+z^4", V2))
    assert report.verdict == NOT_DU_VAL and report.recommendation.weights == (2, 1, 1)


def test_a_and_d_series_indices():
    for k in range(1, 9):
        report = classify(f"x^2+y^2+z^{k + 1}")
        assert (report.family, report.index) == ("A", k)
    for k in range(4, 9):
        report = classify(f"x^2+y^2*z+z^{k - 1}")
        assert (report.family, report.index) == ("D", k)


def test_hessian_rule_verdicts():
    # 3-jets a*y^3 + b*y^2*z + c*y*z^2 + d*z^3 failing one Hessian equation
    # each are type D: bc = 9ad, b^2 = 3ac, c^2 = 3bd
    assert classify("x^2+y^3+z^3").label == "D4"
    assert classify("x^2+y^2*z+z^4").label == "D5"
    assert classify("x^2+y*z^2+y^4").label == "D5"
    # cubes, with a z^3 cube moved to y by the swap
    for text in ("x^2+(y+z)^3+z^4", "x^2+8*y^3+z^4", "x^2+z^3+y^4"):
        assert classify(text).label == "E6", text


def _reference_cube_root(cubic):
    """The monic linear form l with cubic = unit * l^3, if one exists.

    A rational binary cubic with a triple root has that root rational (it is
    a ratio of coefficients), so no algebraic extensions are needed.
    """
    if cubic.arity != 2:
        raise DuvalError("perfect-cube test expects a binary form")
    if cubic.is_zero() or P.weighted_degrees(cubic, (1, 1)) != {3}:
        raise DuvalError("perfect-cube test expects a nonzero homogeneous cubic")
    a = cubic.coefficient((3, 0))
    d = cubic.coefficient((0, 3))
    vars = cubic.vars
    y = Poly.variable(vars, 0)
    z = Poly.variable(vars, 1)
    if a != 0:
        b = cubic.coefficient((2, 1))
        ell = y + Fraction(b, 3 * a) * z
        return ell if a * ell ** 3 == cubic else None
    if cubic.coefficient((2, 1)) == 0 and cubic.coefficient((1, 2)) == 0 and d != 0:
        return z
    return None


def test_hessian_rule_matches_the_cube_root_reference():
    # cubics with three distinct roots, a double root and a triple root (in
    # the direction of y, of z or neither), each with a generic quartic tail:
    # the verdict is E exactly when the reference finds the cube root
    rng = random.Random(151)
    y, z = Poly.variable(V2, 0), Poly.variable(V2, 1)

    def forms(count, alphas, betas):
        # pairwise non-proportional linear forms alpha*y + beta*z
        while True:
            pairs = [(rng.choice(alphas), rng.choice(betas)) for _ in range(count)]
            if all(a * d != b * c for k, (a, b) in enumerate(pairs) for c, d in pairs[k + 1:]):
                return [a * y + b * z for a, b in pairs]

    def nonzero():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))

    units, anything = (-2, -1, 1, 3), (-3, -1, 0, 1, 2)
    # kind -> root multiplicities, choices of alpha, choices of beta
    kinds = {
        "distinct": ((1, 1, 1), anything, anything),
        "double": ((2, 1), anything, anything),
        "cube in y": ((3,), units, (0,)),
        "cube in z": ((3,), (0,), units),
        "cube": ((3,), units, units),
    }
    for kind, (multiplicities, alphas, betas) in kinds.items():
        for _ in range(20):
            cubic = Poly.constant(V2, nonzero())
            for form, m in zip(forms(len(multiplicities), alphas, betas), multiplicities):
                cubic = cubic * form ** m
            root = _reference_cube_root(cubic)
            assert (root is not None) == kind.startswith("cube"), P.render(cubic)
            g = cubic + Poly(V2, {(4 - k, k): nonzero() for k in range(5)})
            report = duval.classify_double_point(g)
            assert report.verdict == DU_VAL, P.render(g)
            assert report.family == ("E" if root is not None else "D"), P.render(g)


def test_truncated_split_examples():
    g, steps, unit = duval.truncated_split(P.parse_poly("x^2+y^3+z^4", V3))
    assert g == P.parse_poly("y^3+z^4", V2)
    assert steps == ()
    assert unit == 1

    f = P.parse_poly("(x+y^2)^2+z^5-y^4", V3)
    g, steps, unit = duval.truncated_split(f)
    assert g == P.parse_poly("z^5-y^4", V2)
    assert unit == 1

    f = P.parse_poly("x^2+x*z^3+y^3", V3)
    g, steps, unit = duval.truncated_split(f)
    assert g == P.parse_poly("y^3-1/4*z^6", V2)


def test_truncated_split_change_verifies_by_substitution():
    texts = [
        "(x+y^2)^2+z^5-y^4",
        "x^2+x*z^3+y^3",
        "x^2+2*x*y+y^2+y^3+z^4",
        "3*x^2+x*y^2+y^3+z^4",
        "x*y+y^3+z^3",
        "y*z+x^3+z^5",
        "z^2+x*y+x^4",
    ]
    for text in texts:
        f = P.parse_poly(text, V3)
        n_trunc = 12
        g, steps, unit = duval.truncated_split(f, n_trunc)
        transformed = P.jet(f, n_trunc)
        for images in steps:
            transformed = P.substitute(transformed, list(images), cap=n_trunc)
        x_square = Poly(V3, {(2, 0, 0): unit})
        embedded = Poly(V3, {(0, m[0], m[1]): c for m, c in g.terms.items()})
        assert transformed == x_square + embedded


def test_split_requires_order_two():
    with pytest.raises(DuvalError):
        duval.truncated_split(P.parse_poly("x^3+y^3+z^3", V3))


def test_verdict_invariant_under_unimodular_changes_and_scaling():
    rng = random.Random(107)
    germs = [
        "x^2+y^2+z^2", "x^2+y^2+z^5", "x^2+y^2+z^9",
        "x^2+y^2*z+z^4", "x^2+y^2*z+z^7",
        "x^2+y^3+z^4", "x^2+y^3+y*z^3", "x^2+y^3+z^5",
        "x^2+y^3+y*z^4+z^6", "x^2+y^4+z^4", "x^3+y^3+z^3",
    ]
    cases = 0
    while cases < 210:
        text = rng.choice(germs)
        f = P.parse_poly(text, V3)
        base = duval.classify_germ(f)
        a, b, c, d = random_unimodular_yz(rng)
        scale = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        x = Poly.variable(V3, 0)
        y = Poly.variable(V3, 1)
        z = Poly.variable(V3, 2)
        g = scale * P.substitute(f, [x, a * y + b * z, c * y + d * z])
        report = duval.classify_germ(g)
        assert (report.verdict, report.family, report.index) == (
            base.verdict,
            base.family,
            base.index,
        )
        cases += 1


def test_du_val_verdicts_match_milnor_oracle():
    expectations = {
        "x^2+y^2+z^2": 1,
        "x^2+y^2+z^4": 3,
        "x^2+y^2*z+z^5": 6,
        "x^2+y^3+z^4": 6,
        "x^2+y^3+y*z^3": 7,
        "x^2+y^3+z^5": 8,
    }
    for text, mu in expectations.items():
        report = classify(text)
        assert report.verdict == DU_VAL
        assert report.milnor == mu == locdef.milnor_number(P.parse_poly(text, V3))
        assert report.index == mu


def test_not_du_val_recommendations_rederive_through_blowup():
    smooth = cyclo.smooth_type(3)
    for text in ["x^3+y^3+z^3", "x^2+y^4+z^4", "x^2+y^3+y*z^4+z^6", "x^4+y^4+z^5"]:
        f = P.parse_poly(text, V3)
        report = duval.classify_germ(f)
        assert report.verdict == NOT_DU_VAL
        normalized = duval.normalized_form(f, report)
        check = wblow.pair_discrepancy(
            smooth, normalized, WeightVector(report.recommendation.weights, 1)
        )
        assert check.pair <= -1
        assert check.pair == report.recommendation.discrepancy


def test_stability_under_high_order_perturbation():
    rng = random.Random(109)
    germs = ["x^2+y^3+z^4", "x^2+y^2+z^5", "x^2+y^3+y*z^4+z^6", "x^3+y^3+z^3"]
    for text in germs:
        f = P.parse_poly(text, V3)
        base = duval.classify_germ(f)
        noise = Poly(
            V3,
            {
                tuple(rng.randint(0, 6) for _ in range(3)): Fraction(rng.randint(1, 3))
                for _ in range(3)
            },
        )
        high = Poly(V3, {m: c for m, c in noise.terms.items() if sum(m) >= 13})
        report = duval.classify_germ(f + high)
        assert (report.verdict, report.family, report.index) == (
            base.verdict,
            base.family,
            base.index,
        )


def test_non_isolated_detection():
    with pytest.raises(NonIsolatedGermError):
        classify("x^2+y^2*z")  # D-branch germ with non-isolated critical locus
    with pytest.raises(NonIsolatedGermError):
        classify("x^2+y^2")  # A-branch germ singular along the z-axis


def test_truncation_too_small():
    with pytest.raises(TruncationError):
        classify("x^2+y^13+z^13", truncation=12)
    report = classify("x^2+y^13+z^13", truncation=14)
    assert report.verdict == NOT_DU_VAL
    assert report.recommendation.weights == (2, 1, 1)


def test_exact_square_is_non_isolated():
    # c * x^2 after linear steps only, with deg f <= N: the split is exact and
    # g = 0, so the germ is singular along a surface at every truncation
    for text in ("x^2", "(x+y)^2", "3*(x-2*y+z)^2", "-2/3*y*z+1/6*y^2+2/3*z^2"):
        for truncation in (2, 12, 30):
            with pytest.raises(NonIsolatedGermError):
                classify(text, truncation)


def test_vanishing_residual_of_an_inexact_split_is_a_truncation_error():
    # deg f > N: the true g of x^2 + x*z^13 is -z^26/4
    with pytest.raises(TruncationError) as caught:
        classify("x^2+x*z^13", truncation=12)
    assert not isinstance(caught.value, NonIsolatedGermError)
    assert classify("x^2+x*z^13", truncation=30).residual == P.parse_poly("-1/4*z^26", V2)
    # a shear above degree 2 fired, so truncation may have dropped terms
    with pytest.raises(TruncationError) as caught:
        classify("(x+y^2)^2", truncation=30)
    assert not isinstance(caught.value, NonIsolatedGermError)


def test_rejects_wrong_arity_and_nonvanishing():
    with pytest.raises(DuvalError):
        duval.classify_germ(P.parse_poly("y^2+z^2", V2))
    with pytest.raises(DuvalError):
        classify("1+x^2")
    with pytest.raises(NonIsolatedGermError):
        duval.classify_germ(Poly.zero(V3))


def test_verdict_invariant_under_dense_linear_changes():
    # full GL3 changes exercise the pivot search and every shear stage
    matrix = [[1, 2, -1], [2, -1, 1], [1, 1, 1]]
    x, y, z = (Poly.variable(V3, i) for i in range(3))
    images = [
        matrix[i][0] * x + matrix[i][1] * y + matrix[i][2] * z for i in range(3)
    ]
    cases = {
        "x^2+y^2+z^2": ("du_val", "A", 1),
        "x^2+y^2*z+z^4": ("du_val", "D", 5),
        "x^2+y^3+z^4": ("du_val", "E", 6),
        "x^2+y^3+z^5": ("du_val", "E", 8),
        "x^2+y^4+z^4": ("not_du_val", None, None),
        "x^2+y^3+y*z^4+z^6": ("not_du_val", None, None),
    }
    for text_germ, expected in cases.items():
        moved = P.substitute(P.parse_poly(text_germ, V3), images)
        report = duval.classify_germ(moved)
        assert (report.verdict, report.family, report.index) == expected, text_germ


def test_report_invariants_survive_optimization():
    # explicit checks, not asserts: `python -O` keeps them
    assert duval.InvariantError is P.InvariantError
    with pytest.raises(duval.InvariantError):
        duval.SingularityReport(verdict=duval.NOT_DU_VAL)
    with pytest.raises(duval.InvariantError):
        duval.SingularityReport(
            verdict=duval.DU_VAL,
            recommendation=duval.Recommendation(weights=(1, 1, 1), discrepancy=Fraction(-1)),
        )


def test_truncation_below_two_is_a_truncation_error():
    f = P.parse_poly("x^2+y^3+z^5", V3)
    for truncation in (0, 1):
        with pytest.raises(TruncationError):
            duval.truncated_split(f, truncation)
        with pytest.raises(TruncationError):
            duval.classify_germ(f, truncation)


def _double_point(g):
    """x^2 + g(y, z), the germ the Milnor oracle used to run on."""
    terms = {(0,) + m: c for m, c in g.terms.items()}
    terms[(2, 0, 0)] = terms.get((2, 0, 0), Fraction(0)) + 1
    return Poly(V3, terms)


def _plane_germs():
    rng = random.Random(113)
    germs = [P.parse_poly(text, V2) for text in ("y^2", "y^2*z", "y^2+z^13")]
    while len(germs) < 15:
        g = random_poly(rng, V2, max_terms=4, max_degree=6, nonzero=True)
        g = g - P.jet(g, 1)
        if not g.is_zero():
            germs.append(g)
    return germs


@pytest.mark.parametrize("cap", [3, 5, 9, 12, None])
def test_milnor_oracle_on_g_matches_the_double_point(cap):
    # the Jacobian ideal of x^2 + g contains x, so mu(x^2 + g) = mu(g),
    # None included, at every cap
    isolated = 0
    for g in _plane_germs():
        mu = locdef.milnor_number(g, cap)
        assert mu == locdef.milnor_number(_double_point(g), cap), P.render(g)
        isolated += mu is not None
    if cap is None:
        assert 0 < isolated < 15


def test_quotient_basis_of_g_lifts_to_the_double_point():
    for g in _plane_germs():
        for n in range(2, 14):
            lifted = tuple((0,) + m for m in locdef.quotient_dim(g, "jacobian", n).basis)
            assert lifted == locdef.quotient_dim(_double_point(g), "jacobian", n).basis


# -- the packed shear kernel against one Poly-level substitution per shear --


def _reference_shear(f, i, k, lead, degree, cap, steps):
    """One shear against lead * v^k at one degree, as one P.substitute call."""
    pure = tuple(k if j == i else 0 for j in range(f.arity))
    targets = {
        m: coeff
        for m, coeff in f.terms.items()
        if sum(m) == degree and m[i] >= k - 1 and m != pure
    }
    if not targets:
        return f
    shear = Poly(f.vars, {
        tuple(e - (k - 1) if j == i else e for j, e in enumerate(m)): coeff / (k * lead)
        for m, coeff in targets.items()
    })
    images = [Poly.variable(f.vars, j) for j in range(f.arity)]
    images[i] = images[i] - shear
    steps.append(tuple(images))
    return P.substitute(f, images, cap=cap)


def _reference_split(f, n_trunc):
    """truncated_split with every step applied by P.substitute."""
    x, y, z = (Poly.variable(V3, i) for i in range(3))
    steps = []
    current = P.jet(f, n_trunc)
    squares = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    pivot = next((i for i in range(3) if current.coefficient(squares[i]) != 0), None)
    if pivot is None:
        i, j = next(
            (i, j) for i in range(3) for j in range(i + 1, 3)
            if current.coefficient(tuple(int(e in (i, j)) for e in range(3))) != 0
        )
        images = [x, y, z]
        images[j] = images[j] + images[i]
        steps.append(tuple(images))
        current = P.substitute(current, images, cap=n_trunc)
        pivot = i
    if pivot != 0:
        images = [x, y, z]
        images[0], images[pivot] = images[pivot], images[0]
        steps.append(tuple(images))
        current = P.substitute(current, images, cap=n_trunc)
    c = current.coefficient((2, 0, 0))
    for degree in range(2, n_trunc + 1):
        current = _reference_shear(current, 0, 2, c, degree, n_trunc, steps)
    g = Poly(V2, {m[1:]: coeff for m, coeff in current.terms.items() if m != (2, 0, 0)})
    return g, tuple(steps), c


def _reference_cube_normalization(g, n_trunc):
    """classify_double_point's steps and residual on a perfect-cube 3-jet, shears
    by P.substitute; None on the other branches, which take no steps."""
    g = P.jet(g, n_trunc)
    if P.order(g) != 3:
        return None
    ell = _reference_cube_root(P.jet(g, 3))
    if ell is None:
        return None
    y, z = Poly.variable(V2, 0), Poly.variable(V2, 1)
    alpha, beta = ell.coefficient((1, 0)), ell.coefficient((0, 1))
    images = [(y - beta * z) * (1 / alpha), z] if alpha else [z, y]
    steps = []
    if images != [y, z]:
        steps.append(tuple(images))
        g = P.substitute(g, images, cap=n_trunc)
    for degree in (4, 5):
        g = _reference_shear(g, 0, 3, g.coefficient((3, 0)), degree, n_trunc, steps)
    return tuple(steps), g


def _brieskorn(*exponents):
    principal = [tuple(e if j == i else 0 for j in range(3)) for i, e in enumerate(exponents)]
    return principal, tuple(Fraction(1, e) for e in exponents)


# (principal monomials, weights) of every germ-classify family of order 2:
# A_n, D_n, E6, E7, E8, J211 and J321, then E6 and E7 with the cube in z.
# Terms of weighted degree above 1 keep the family.
_SPLIT_FAMILIES = (
    [_brieskorn(2, 2, n + 1) for n in (1, 4, 7, 11)]
    + [([(2, 0, 0), (0, 2, 1), (0, 0, n - 1)],
        (Fraction(1, 2), Fraction(n - 2, 2 * n - 2), Fraction(1, n - 1))) for n in (4, 6, 9)]
    + [_brieskorn(2, 3, 4),
       ([(2, 0, 0), (0, 3, 0), (0, 1, 3)], (Fraction(1, 2), Fraction(1, 3), Fraction(2, 9))),
       _brieskorn(2, 3, 5)]
    + [_brieskorn(2, a, b) for a, b in ((4, 4), (4, 6), (5, 5))]
    + [_brieskorn(2, 3, b) for b in (6, 8, 9)]
    + [_brieskorn(2, 4, 3),
       ([(2, 0, 0), (0, 0, 3), (0, 3, 1)], (Fraction(1, 2), Fraction(2, 9), Fraction(1, 3)))]
)


def _split_germs():
    """Seeded order-2 germs under sparse and dense L*U changes of coordinates."""
    rng = random.Random(149)
    upper = [
        (i, j, d - i - j) for d in range(3, 9) for i in range(d + 1) for j in range(d + 1 - i)
    ]
    germs = []
    for number, (principal, weights) in enumerate(_SPLIT_FAMILIES * 2):
        big = number % 2  # six-digit numerators over two-digit denominators
        pool = [m for m in upper if sum(w * e for w, e in zip(weights, m)) > 1]
        terms = {}
        for m in principal + rng.sample(pool, 3):
            num = rng.randint(1, 999999) if big else rng.randint(1, 3)
            terms[m] = Fraction(rng.choice([-1, 1]) * num, rng.randint(1, 99) if big else 1)
        if number % 4 < 2:
            a, b, c = (rng.choice([-2, -1, 0, 1, 2]) for _ in range(3))
            matrix = [[1, a, b], [0, 1, c], [0, 0, 1]]
        else:
            s = [rng.choice([-1, 1]) for _ in range(6)]
            lower = [[1, 0, 0], [s[0], 1, 0], [s[1], s[2], 1]]
            upper_factor = [[1, s[3], s[4]], [0, 1, s[5]], [0, 0, 1]]
            matrix = [[sum(lower[i][k] * upper_factor[k][j] for k in range(3))
                       for j in range(3)] for i in range(3)]
        x, y, z = (Poly.variable(V3, i) for i in range(3))
        images = [row[0] * x + row[1] * y + row[2] * z for row in matrix]
        germs.append(P.substitute(Poly(V3, terms), images))
    return germs


def test_shear_kernel_matches_one_substitution_per_shear():
    cube_branches = sheared = swapped = 0
    swap = (Poly.variable(V2, 1), Poly.variable(V2, 0))
    for number, f in enumerate(_split_germs()):
        # every truncation from 2 to 14, and one at 6 or above per germ
        for n_trunc in sorted({2 + number % 13, 14 - number % 9}):
            g, steps, c = duval.truncated_split(f, n_trunc)
            assert (g, steps, c) == _reference_split(f, n_trunc), (P.render(f), n_trunc)
            expected = _reference_cube_normalization(g, n_trunc) if n_trunc >= 6 else None
            if expected is None:
                continue
            report = duval.classify_double_point(g, n_trunc)
            assert (report.normalization, report.residual) == expected, (P.render(g), n_trunc)
            cube_branches += 1
            sheared += any(P.degree(image) > 1 for images in expected[0] for image in images)
            swapped += swap in expected[0]
    assert cube_branches >= 10 and sheared >= 5 and swapped >= 2
