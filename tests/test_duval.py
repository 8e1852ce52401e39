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


def test_perfect_cube_root():
    assert duval.perfect_cube_root(P.parse_poly("y^3+3*y^2*z+3*y*z^2+z^3", V2)) == P.parse_poly(
        "y+z", V2
    )
    assert duval.perfect_cube_root(P.parse_poly("y^3+z^3", V2)) is None
    assert duval.perfect_cube_root(P.parse_poly("8*y^3", V2)) == P.parse_poly("y", V2)
    assert duval.perfect_cube_root(P.parse_poly("z^3", V2)) == P.parse_poly("z", V2)
    assert duval.perfect_cube_root(P.parse_poly("y^2*z", V2)) is None
    with pytest.raises(DuvalError):
        duval.perfect_cube_root(P.parse_poly("y^2+z^2", V2))


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
