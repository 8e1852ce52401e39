"""Classification of isolated double points x^2 + g(y, z) on a smooth 3-fold.

A germ of order >= 3 immediately yields the origin blow-up with discrepancy
2 - mult <= -1.  A germ of order 2 is split as x^2 + g(y, z) by
poly.split_square, the split that locdef's Milnor and Tjurina numbers use
too.  Its truncated shears run in poly.shears, the one shear kernel, on one
packed integer form of the jet (packed once, unpacked once).  A germ that
is exactly c*x^2 after linear steps is singular along a surface.  g is
then run through the jet case tree: order 2 gives type A, and the 3-jet
a*y^3 + b*y^2*z + c*y*z^2 + d*z^3 is decided by its Hessian.  It is a cube
exactly when the Hessian vanishes, b^2 = 3ac, bc = 9ad and c^2 = 3bd;
otherwise it has two distinct factors and gives type D.  A cube is brought
to y^3 by the shears at degrees 3, 4 and 5 (after exchanging y and z when
a = 0); the 4- and 5-jet coefficients then decide E6/E7/E8 or, failing all
of those, the (3, 2, 1) weighted blow-up with discrepancy -1.
A and D indices come from the Milnor-number oracle; every Du Val verdict
is cross-checked against it.  The oracle runs on g itself: the Jacobian
ideal of x^2 + g contains x, so O_3/(J + m^N) and O_2/(J_g + m^N) are
isomorphic for every N and mu(x^2 + g) = mu(g) (Sebastiani-Thom).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import locdef
from . import poly as P
from .poly import INFINITY, InvariantError, Poly

SMOOTH = "smooth"
DU_VAL = "du_val"
NOT_DU_VAL = "not_du_val"

class DuvalError(ValueError):
    """Invalid classifier input."""


class NonIsolatedGermError(DuvalError):
    """A non-isolated critical point: proven, or the Milnor oracle failed to stabilize."""


class TruncationError(DuvalError):
    """The truncation degree is too small to decide; retry with a larger one."""


Step = tuple[Poly, ...]  # images of the ambient variables, one substitution


@dataclass(frozen=True)
class Recommendation:
    """A weighted blow-up making the pair discrepancy drop to -1 or below."""

    weights: tuple[int, ...]
    discrepancy: Fraction


@dataclass(frozen=True)
class SingularityReport:
    verdict: str
    family: str | None = None
    index: int | None = None
    milnor: int | None = None
    recommendation: Recommendation | None = None
    normalization: tuple[Step, ...] = ()
    residual: Poly | None = None
    quadratic_coefficient: Fraction | None = None

    def __post_init__(self):
        if self.verdict == NOT_DU_VAL:
            if self.recommendation is None:
                raise InvariantError("a not-Du-Val verdict needs a recommended blow-up")
            if self.recommendation.discrepancy > -1:
                raise InvariantError(
                    f"recommended blow-up has discrepancy {self.recommendation.discrepancy} > -1"
                )
        if self.verdict == DU_VAL and self.recommendation is not None:
            raise InvariantError("a Du Val verdict carries no recommended blow-up")

    @property
    def label(self) -> str | None:
        if self.family is None:
            return None
        return f"{self.family}{self.index}"


def truncated_split(f: Poly, truncation: int | None = None) -> tuple[Poly, tuple[Step, ...], Fraction]:
    """Split an order-2 germ as c*x^2 + g(y, z) modulo degree > truncation.

    Returns (g, steps, c): applying the recorded substitution steps to f and
    truncating reproduces c*x^2 + g exactly, with g free of the first
    variable.  The change is a linear normalization followed by one shear
    per degree, each shear removing every x-involving term of that degree:
    poly.split_square on three variables.
    """
    n_trunc = locdef.default_truncation() if truncation is None else truncation
    if f.arity != 3:
        raise DuvalError("splitting expects a germ in 3 variables")
    if P.order(f) != 2:
        raise DuvalError("splitting expects a germ of order exactly 2")
    if n_trunc < 2:
        raise TruncationError("splitting needs truncation >= 2")
    steps: list[Step] = []
    g, c = P.split_square(f, n_trunc, steps)
    return g, tuple(steps), c


def _oracle_milnor(germ: Poly) -> int:
    mu = locdef.milnor_number(germ)
    if mu is None:
        raise NonIsolatedGermError(
            "Milnor number did not stabilize: germ is non-isolated "
            "(or the truncation cap is too small)"
        )
    return mu


def classify_double_point(g: Poly, truncation: int | None = None) -> SingularityReport:
    """Classify the germ x^2 + g(y, z) with g of order >= 2.

    The report's normalization steps act on the (y, z) plane only and are
    recorded as substitutions of the two input variables.
    """
    n_trunc = locdef.default_truncation() if truncation is None else truncation
    if n_trunc < 6:
        raise TruncationError("double-point classification needs truncation >= 6")
    if g.arity != 2:
        raise DuvalError("double-point residual must be a germ in 2 variables")
    g = P.jet(g, n_trunc)
    g_order = P.order(g)
    if g_order is INFINITY:
        raise TruncationError(
            "residual vanishes to the truncation degree; retry with a larger one"
        )
    if g_order < 2:
        raise DuvalError("double-point residual must have order >= 2")

    if g_order >= 4:
        return SingularityReport(
            verdict=NOT_DU_VAL,
            recommendation=Recommendation(weights=(2, 1, 1), discrepancy=Fraction(-1)),
            residual=g,
        )

    steps: list[Step] = []
    family, index = "A", None
    if g_order == 3:
        # the 3-jet a*y^3 + b*y^2*z + c*y*z^2 + d*z^3 is a cube exactly when its
        # Hessian 4*((3ac - b^2)*y^2 + (9ad - bc)*y*z + (3bd - c^2)*z^2) vanishes
        a, b, c, d = (g.coefficient((3 - k, k)) for k in range(4))
        cube = b * b == 3 * a * c and b * c == 9 * a * d and c * c == 3 * b * d
        family = "E" if cube else "D"
    if family == "E":
        # a = 0 forces b = c = 0: the cube d * z^3 moves to y by swapping
        # exponents; the shear at degree 3, y -> y - b/(3a) * z, takes a cube
        # a * (y + b/(3a) * z)^3 to a * y^3, and the shears at degrees 4 and 5
        # remove the terms divisible by y^2
        if a == 0:
            steps.append((Poly.variable(g.vars, 1), Poly.variable(g.vars, 0)))
            g = Poly(g.vars, {(k, j): coeff for (j, k), coeff in g.terms.items()})
        cube_coeff = g.coefficient((3, 0))
        g = P.shears(g, 0, 3, cube_coeff, (3, 4, 5), n_trunc, steps)
        if P.jet(g, 3).terms != {(3, 0): cube_coeff}:
            raise InvariantError("cube normalization did not give a multiple of y^3")

        # alpha z^4, beta y z^3 and gamma z^5 decide E6, E7 and E8
        if g.coefficient((0, 4)) != 0:
            index = 6
        elif g.coefficient((1, 3)) != 0:
            index = 7
        elif g.coefficient((0, 5)) != 0:
            index = 8
        else:
            # both the delta != 0 and delta = 0 sub-cases take the same blow-up
            return SingularityReport(
                verdict=NOT_DU_VAL,
                recommendation=Recommendation(weights=(3, 2, 1), discrepancy=Fraction(-1)),
                normalization=tuple(steps),
                residual=g,
            )

    mu = _oracle_milnor(g)
    report = SingularityReport(
        verdict=DU_VAL,
        family=family,
        index=mu if index is None else index,
        milnor=mu,
        normalization=tuple(steps),
        residual=g,
    )
    _check_du_val_milnor(report)
    return report


def _check_du_val_milnor(report: SingularityReport) -> None:
    if report.milnor != report.index:
        raise NonIsolatedGermError(
            f"oracle mismatch: {report.family}{report.index} verdict with "
            f"Milnor number {report.milnor}"
        )
    if report.family == "D" and report.milnor < 4:
        raise NonIsolatedGermError(
            f"oracle mismatch: type D needs Milnor number >= 4, got {report.milnor}"
        )


def classify_germ(f: Poly, truncation: int | None = None) -> SingularityReport:
    """Classify a 3-variable germ vanishing at the origin.

    Order >= 3 germs get the origin blow-up with discrepancy 2 - mult; order
    2 germs are split as x^2 + g and dispatched on g.  The reported
    normalization steps apply to f in order; after them (and truncation) the
    germ reads quadratic_coefficient * x^2 + residual(y, z).
    """
    n_trunc = locdef.default_truncation() if truncation is None else truncation
    if f.arity != 3:
        raise DuvalError("classification expects a germ in 3 variables")
    if f.is_zero():
        raise NonIsolatedGermError("the zero germ is not an isolated singularity")
    f_order = P.order(f)
    if f_order == 0:
        raise DuvalError("germ must vanish at the origin")
    if f_order == 1:
        return SingularityReport(verdict=SMOOTH)
    if f_order >= 3:
        return SingularityReport(
            verdict=NOT_DU_VAL,
            recommendation=Recommendation(
                weights=(1, 1, 1), discrepancy=Fraction(2 - f_order)
            ),
        )

    g, split_steps, quad_coeff = truncated_split(f, n_trunc)
    if g.is_zero() and P.degree(f) <= n_trunc and all(
        P.degree(image) <= 1 for images in split_steps for image in images
    ):
        # every step was linear, so truncation dropped nothing: f is c*x^2
        # in new coordinates, singular along the surface x = 0
        raise NonIsolatedGermError(
            "germ is a square after a linear change of coordinates: "
            "singular along a surface"
        )
    inner = classify_double_point(g, n_trunc)
    vars = f.vars
    lifted: list[Step] = list(split_steps)
    for images in inner.normalization:
        lifted.append((
            Poly.variable(vars, 0),
            _lift_plane_poly(images[0], vars),
            _lift_plane_poly(images[1], vars),
        ))
    return replace(inner, normalization=tuple(lifted), quadratic_coefficient=quad_coeff)


def _lift_plane_poly(p: Poly, vars: tuple[str, ...]) -> Poly:
    return Poly(vars, {(0, m[0], m[1]): c for m, c in p.terms.items()})


def normalized_form(f: Poly, report: SingularityReport, truncation: int | None = None) -> Poly:
    """Apply the report's normalization steps to f, truncated."""
    n_trunc = locdef.default_truncation() if truncation is None else truncation
    f = P.jet(f, n_trunc)
    for images in report.normalization:
        f = P.substitute(f, list(images), cap=n_trunc)
    return f
