"""Every library input check raises its module's error class with its message.

The CLI maps these classes to exit code 2, so a check that raised a bare
IndexError or a wrong class would surface as an internal error instead.
"""

from fractions import Fraction

import pytest

from elephantine import cyclo, duval, locdef, poly as P, wblow, wps
from elephantine.cyclo import QuotientType, QuotientTypeError
from elephantine.duval import DuvalError, TruncationError
from elephantine.locdef import LocdefError
from elephantine.poly import Poly, PolyError
from elephantine.wblow import BlowupError, WeightVector
from elephantine.wps import WpsError, WpsHypersurface

V2 = ("y", "z")
V3 = ("x", "y", "z")


def _poly(text, vars=V3):
    return P.parse_poly(text, vars)


def _surface(weights=(1, 1, 1), degree=3, equation="x^3+y^3+z^3", vars=V3):
    return WpsHypersurface(weights=weights, degree=degree, equation=_poly(equation, vars))


_Q2 = QuotientType(2, (1, 1, 1))
_V2 = WeightVector((1, 1, 1), 2)

CASES = [
    ("poly-arity", lambda: Poly(V3, {(1, 2): 1}), PolyError,
     "exponent tuple (1, 2) does not match arity 3"),
    ("poly-negative-exponent", lambda: Poly(V3, {(1, -1, 0): 1}), PolyError,
     "negative exponent in (1, -1, 0)"),
    ("jet-degree", lambda: P.jet(_poly("x"), -1), PolyError, "jet degree must be non-negative"),
    ("weight-arity", lambda: P.weight(_poly("x"), (1, 1)), PolyError,
     "weight vector arity mismatch"),
    ("weight-denominator", lambda: P.weight(_poly("x"), (1, 1, 1), 0), PolyError,
     "weight denominator must be positive"),
    ("weighted-degrees-arity", lambda: P.weighted_degrees(_poly("x"), (1, 1)), PolyError,
     "weight arity mismatch"),
    ("substitute-image-count", lambda: P.substitute(_poly("x"), [_poly("y")]), PolyError,
     "need 3 images, got 1"),
    ("substitute-context",
     lambda: P.substitute(_poly("x"), [_poly("y"), _poly("y"), _poly("y", V2)]), PolyError,
     "images live in inconsistent contexts"),
    ("assign-every-variable", lambda: P.assign(_poly("x"), {0: 1, 1: 1, 2: 1}), PolyError,
     "cannot assign every variable"),
    ("assign-index-negative", lambda: P.assign(_poly("x+y*z+z^2"), {-1: 0}), PolyError,
     "variable index must lie in 0..2, got -1"),
    ("assign-index-arity", lambda: P.assign(_poly("x+y*z+z^2"), {3: 1}), PolyError,
     "variable index must lie in 0..2, got 3"),
    ("shears-index-negative", lambda: P.shears(_poly("y^2+x^3"), -1, 2, Fraction(1), (3,), 6),
     PolyError, "variable index must lie in 0..2, got -1"),
    ("shears-index-arity", lambda: P.shears(_poly("y^2+x^3"), 3, 2, Fraction(1), (3,), 6),
     PolyError, "variable index must lie in 0..2, got 3"),
    ("shears-power", lambda: P.shears(_poly("y^2+x^3"), 1, 0, Fraction(1), (3,), 6), PolyError,
     "shear needs k >= 1 and a nonzero lead, got k = 0, lead = 1"),
    ("shears-lead", lambda: P.shears(_poly("y^2+x*y^2"), 1, 2, Fraction(0), (3,), 6), PolyError,
     "shear needs k >= 1 and a nonzero lead, got k = 2, lead = 0"),
    ("weighted-monomials-no-weights", lambda: P.monomials_of_weighted_degree((), 2), PolyError,
     "need one or more positive weights, got ()"),
    ("weighted-monomials-zero-weight", lambda: P.monomials_of_weighted_degree((2, 0), 4),
     PolyError, "need one or more positive weights, got (2, 0)"),
    ("monomials-below-no-variables", lambda: locdef.monomials_below(0, 2), PolyError,
     "need one or more positive weights, got ()"),
    ("parse-nesting-101", lambda: _poly("(" * 101 + "x" + ")" * 101), P.PolyParseError,
     "more than 100 nested parentheses (at position 100)"),
    ("parse-nesting-300", lambda: _poly("x+" + "(" * 300 + "y" + ")" * 300), P.PolyParseError,
     "more than 100 nested parentheses (at position 102)"),
    ("quotient-order", lambda: QuotientType(0, (1, 1)), QuotientTypeError,
     "group order must be >= 1"),
    ("parse-type-weights", lambda: cyclo.parse_type("1/3(1,a)"), QuotientTypeError,
     "bad weight list in '1/3(1,a)'"),
    ("monomial-character-arity", lambda: cyclo.monomial_character((1, 0), _Q2), QuotientTypeError,
     "monomial arity 2 does not match type arity 3"),
    ("semi-invariant-arity", lambda: cyclo.semi_invariant_character(_poly("y", V2), _Q2),
     QuotientTypeError, "polynomial arity does not match type arity"),
    ("parse-weight-vector", lambda: wblow.parse_weight_vector("1,2"), BlowupError,
     "cannot parse weight vector '1,2'"),
    ("parse-weight-vector-weights", lambda: wblow.parse_weight_vector("1/2(1,b)"), BlowupError,
     "bad weight list in '1/2(1,b)'"),
    ("check-primitive-denominator", lambda: wblow.check_primitive(_Q2, WeightVector((1, 1, 1), 3)),
     BlowupError, "weight denominator 3 must equal the group order 2"),
    ("charts-name-count", lambda: wblow.charts(_Q2, _V2, ("a", "b")), BlowupError,
     "variable name count mismatch"),
    ("strict-transform-arity", lambda: wblow.strict_transform(_poly("y^2", V2), _Q2, _V2, 0),
     BlowupError, "divisor arity does not match blow-up arity"),
    ("strict-transform-index", lambda: wblow.strict_transform(_poly("x^2"), _Q2, _V2, 3),
     BlowupError, "chart index 3 out of range"),
    ("pair-discrepancy-zero", lambda: wblow.pair_discrepancy(_Q2, Poly.zero(V3), _V2),
     BlowupError, "the zero polynomial does not define a divisor"),
    ("wps-weight-count", lambda: _surface(weights=(1, 1), equation="y^3+z^3", vars=V2),
     WpsError, "need at least 3 weights"),
    ("wps-weights", lambda: _surface(weights=(1, 0, 1)), WpsError, "weights must be positive"),
    ("wps-degree", lambda: _surface(degree=0), WpsError, "degree must be positive"),
    ("wps-equation-arity", lambda: _surface(equation="y^3+z^3", vars=V2), WpsError,
     "equation arity does not match the weight count"),
    ("wps-equation-zero", lambda: _surface(equation="0"), WpsError, "equation must be nonzero"),
    ("anticanonical-zero-weight", lambda: wps.anticanonical_data((0, 1, 1), (2,)), WpsError,
     "weights and degrees must be positive"),
    ("anticanonical-negative-weight", lambda: wps.anticanonical_data((-1, 1, 1), (2,)), WpsError,
     "weights and degrees must be positive"),
    ("anticanonical-degree", lambda: wps.anticanonical_data((1, 1, 1), (2, 0)), WpsError,
     "weights and degrees must be positive"),
    ("wps-stratum-coordinates", lambda: wps.stratum_report(_surface(), 1, 1), WpsError,
     "stratum needs two distinct coordinates"),
    ("truncated-split-arity", lambda: duval.truncated_split(_poly("y^2+z^3", V2)), DuvalError,
     "splitting expects a germ in 3 variables"),
    ("double-point-truncation", lambda: duval.classify_double_point(_poly("y^2+z^3", V2), 5),
     TruncationError, "double-point classification needs truncation >= 6"),
    ("double-point-arity", lambda: duval.classify_double_point(_poly("y^2+z^3")), DuvalError,
     "double-point residual must be a germ in 2 variables"),
    ("double-point-order", lambda: duval.classify_double_point(_poly("y+z^2", V2)), DuvalError,
     "double-point residual must have order >= 2"),
    ("quotient-dim-tag", lambda: locdef.quotient_dim(_poly("x^2"), "bogus"), LocdefError,
     "unknown ideal tag 'bogus'"),
    ("quotient-dim-truncation", lambda: locdef.quotient_dim(_poly("x^2"), "jacobian", 0),
     LocdefError, "truncation degree must be >= 1"),
    ("in-m2-image-arity", lambda: locdef.in_m2_image(_poly("x^2"), _poly("y", V2)), LocdefError,
     "germ and deformation arity mismatch"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check_raises_its_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
