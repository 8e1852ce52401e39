"""Classification of isolated double points x^2 + g(y, z) on a smooth 3-fold.

A germ of order >= 3 immediately yields the origin blow-up with discrepancy
2 - mult <= -1.  A germ of order 2 is split as x^2 + g(y, z) by truncated
shears, and g is then run through the jet case tree: order 2 gives type A,
a 3-jet with two distinct factors gives type D, a perfect-cube 3-jet is
normalized to y^3 and the 4- and 5-jet coefficients decide E6/E7/E8 or,
failing all of those, the (3, 2, 1) weighted blow-up with discrepancy -1.
A and D indices come from the Milnor-number oracle; every Du Val verdict is
cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import locdef
from . import poly as P
from .poly import INFINITY, Poly

SMOOTH = "smooth"
DU_VAL = "du_val"
NOT_DU_VAL = "not_du_val"

_DU_VAL_MILNOR = {"E": {6: 6, 7: 7, 8: 8}}


class DuvalError(ValueError):
    """Invalid classifier input."""


class NonIsolatedGermError(DuvalError):
    """The Milnor oracle failed to stabilize: non-isolated critical point."""


class TruncationError(DuvalError):
    """The truncation degree is too small to decide; retry with a larger one."""


class InvariantError(RuntimeError):
    """An internal invariant of the classifier failed: a bug, not bad input."""


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


def _identity_images(vars: tuple[str, ...]) -> list[Poly]:
    return [Poly.variable(vars, i) for i in range(len(vars))]


def _apply_steps(f: Poly, steps: tuple[Step, ...], cap: int) -> Poly:
    for images in steps:
        f = P.substitute(f, list(images), cap=cap)
    return f


def perfect_cube_root(cubic: Poly) -> Poly | None:
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


def truncated_split(f: Poly, truncation: int | None = None) -> tuple[Poly, tuple[Step, ...], Fraction]:
    """Split an order-2 germ as c*x^2 + g(y, z) modulo degree > truncation.

    Returns (g, steps, c): applying the recorded substitution steps to f and
    truncating reproduces c*x^2 + g exactly, with g free of the first
    variable.  The change is a linear normalization followed by one shear
    per degree, each shear removing every x-involving term of that degree.
    """
    n_trunc = locdef.default_truncation() if truncation is None else truncation
    if f.arity != 3:
        raise DuvalError("splitting expects a germ in 3 variables")
    if P.order(f) != 2:
        raise DuvalError("splitting expects a germ of order exactly 2")
    vars = f.vars
    steps: list[Step] = []
    current = P.jet(f, n_trunc)

    quad = P.jet(current, 2)
    pivot = next((i for i in range(3) if quad.coefficient(_square(i)) != 0), None)
    if pivot is None:
        # only cross terms: create a square from the first one present
        i, j = next(
            (i, j)
            for i in range(3)
            for j in range(i + 1, 3)
            if quad.coefficient(_cross(i, j)) != 0
        )
        images = _identity_images(vars)
        images[j] = images[j] + Poly.variable(vars, i)
        steps.append(tuple(images))
        current = P.substitute(current, images, cap=n_trunc)
        pivot = i
    if pivot != 0:
        images = _identity_images(vars)
        images[0], images[pivot] = images[pivot], images[0]
        steps.append(tuple(images))
        current = P.substitute(current, images, cap=n_trunc)

    c = current.coefficient(_square(0))
    if c == 0:
        raise InvariantError("linear normalization left no x^2 term")
    x_square = _square(0)
    for degree_stage in range(2, n_trunc + 1):
        targets = {
            mono: coeff
            for mono, coeff in current.terms.items()
            if sum(mono) == degree_stage and mono[0] >= 1 and mono != x_square
        }
        if not targets:
            continue
        shear = Poly(vars, {
            (m[0] - 1, m[1], m[2]): coeff / (2 * c) for m, coeff in targets.items()
        })
        images = _identity_images(vars)
        images[0] = images[0] - shear
        steps.append(tuple(images))
        current = P.substitute(current, images, cap=n_trunc)

    residual_terms = {m: coeff for m, coeff in current.terms.items() if m != x_square}
    if any(m[0] for m in residual_terms):
        raise InvariantError("split left x-involving terms")
    g = Poly(vars[1:], {(m[1], m[2]): coeff for m, coeff in residual_terms.items()})
    return g, tuple(steps), c


def _square(i: int) -> tuple[int, int, int]:
    mono = [0, 0, 0]
    mono[i] = 2
    return tuple(mono)


def _cross(i: int, j: int) -> tuple[int, int, int]:
    mono = [0, 0, 0]
    mono[i] = 1
    mono[j] = 1
    return tuple(mono)


def _embed_double_point(g: Poly) -> Poly:
    """The 3-variable germ x^2 + g(y, z)."""
    vars = ("x",) + tuple(g.vars) if "x" not in g.vars else ("x0",) + tuple(g.vars)
    terms = {(0, m[0], m[1]): c for m, c in g.terms.items()}
    terms[(2, 0, 0)] = terms.get((2, 0, 0), Fraction(0)) + 1
    return Poly(vars, terms)


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

    vars = g.vars
    steps: list[Step] = []

    if g_order == 2:
        mu = _oracle_milnor(_embed_double_point(g))
        return SingularityReport(
            verdict=DU_VAL, family="A", index=mu, milnor=mu, residual=g,
        )
    if g_order >= 4:
        return SingularityReport(
            verdict=NOT_DU_VAL,
            recommendation=Recommendation(weights=(2, 1, 1), discrepancy=Fraction(-1)),
            residual=g,
        )

    cubic = P.jet(g, 3)
    ell = perfect_cube_root(cubic)
    if ell is None:
        mu = _oracle_milnor(_embed_double_point(g))
        report = SingularityReport(
            verdict=DU_VAL, family="D", index=mu, milnor=mu, residual=g,
        )
        _check_du_val_milnor(report)
        return report

    # move the unique linear factor to the first coordinate
    y = Poly.variable(vars, 0)
    z = Poly.variable(vars, 1)
    alpha_coeff = ell.coefficient((1, 0))
    beta_coeff = ell.coefficient((0, 1))
    if alpha_coeff != 0:
        images = [(y - beta_coeff * z) * (Fraction(1) / alpha_coeff), z]
    else:
        images = [z, y]
    if images != [y, z]:
        steps.append(tuple(images))
        g = P.substitute(g, images, cap=n_trunc)

    cube_coeff = g.coefficient((3, 0))
    if cube_coeff == 0 or P.jet(g, 3) != cube_coeff * y ** 3:
        raise InvariantError("cube normalization did not give a multiple of y^3")

    # shear away the degree-4 and degree-5 terms divisible by y^2
    for degree_stage in (4, 5):
        targets = {
            m: coeff
            for m, coeff in g.terms.items()
            if sum(m) == degree_stage and m[0] >= 2
        }
        if not targets:
            continue
        shear = Poly(vars, {
            (m[0] - 2, m[1]): coeff / (3 * cube_coeff) for m, coeff in targets.items()
        })
        images = [y - shear, z]
        steps.append(tuple(images))
        g = P.substitute(g, images, cap=n_trunc)

    alpha = g.coefficient((0, 4))
    beta = g.coefficient((1, 3))
    if alpha != 0:
        family_index = 6
    elif beta != 0:
        family_index = 7
    else:
        gamma = g.coefficient((0, 5))
        if gamma != 0:
            family_index = 8
        else:
            # both the delta != 0 and delta = 0 sub-cases take the same blow-up
            return SingularityReport(
                verdict=NOT_DU_VAL,
                recommendation=Recommendation(weights=(3, 2, 1), discrepancy=Fraction(-1)),
                normalization=tuple(steps),
                residual=g,
            )
    mu = _oracle_milnor(_embed_double_point(g))
    report = SingularityReport(
        verdict=DU_VAL,
        family="E",
        index=family_index,
        milnor=mu,
        normalization=tuple(steps),
        residual=g,
    )
    _check_du_val_milnor(report)
    return report


def _check_du_val_milnor(report: SingularityReport) -> None:
    expected = report.index
    if report.milnor != expected:
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
    inner = classify_double_point(g, n_trunc)
    vars = f.vars
    lifted: list[Step] = list(split_steps)
    for images in inner.normalization:
        lifted.append((
            Poly.variable(vars, 0),
            _lift_plane_poly(images[0], vars),
            _lift_plane_poly(images[1], vars),
        ))
    return SingularityReport(
        verdict=inner.verdict,
        family=inner.family,
        index=inner.index,
        milnor=inner.milnor,
        recommendation=inner.recommendation,
        normalization=tuple(lifted),
        residual=inner.residual,
        quadratic_coefficient=quad_coeff,
    )


def _lift_plane_poly(p: Poly, vars: tuple[str, ...]) -> Poly:
    return Poly(vars, {(0, m[0], m[1]): c for m, c in p.terms.items()})


def normalized_form(f: Poly, report: SingularityReport, truncation: int | None = None) -> Poly:
    """Apply the report's normalization steps to f, truncated."""
    n_trunc = locdef.default_truncation() if truncation is None else truncation
    return _apply_steps(P.jet(f, n_trunc), report.normalization, n_trunc)
