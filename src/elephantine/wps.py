"""Singularity inventories of weighted-projective hypersurfaces.

The analyzer inspects the loci where a well-formed weighted projective space
is allowed to be singular and where quasi-smoothness can fail in a way that
is decidable by exact univariate algebra: the coordinate points and the
one-dimensional coordinate strata.  Points found there are reported with
their stabilizer data and, at quasi-smooth points, the normalized transverse
quotient type.  Deeper strata are not searched; that limitation is part of
the report.  Each coordinate line is read off f once: one pass over its
terms gives the line forms, f and every partial restricted to the line as
univariate coefficient lists on the chart x_i = 1, and the stratum report
works on those lists alone: one gcd chain through the partials sorts the
line's points by the first partial nonzero at each, and the points where
none is nonzero, which lie on f by Euler's formula, are the
non-quasi-smooth ones.

Anticanonical data (degree, monomial basis of sections, and the elephant
equation when the unique section is a coordinate) also lives here, including
the codimension-2 complete-intersection variant of the degree formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import poly as P
from .cyclo import QuotientType, normalize_type, render_type
from .poly import InvariantError, Monomial, Poly


class WpsError(ValueError):
    """Invalid weighted-hypersurface input."""


@dataclass(frozen=True)
class WpsHypersurface:
    """A hypersurface of the given degree in P(w_0, ..., w_n)."""

    weights: tuple[int, ...]
    degree: int
    equation: Poly

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) < 3:
            raise WpsError("need at least 3 weights")
        if any(w < 1 for w in self.weights):
            raise WpsError("weights must be positive")
        if self.degree < 1:
            raise WpsError("degree must be positive")
        if self.equation.arity != len(self.weights):
            raise WpsError("equation arity does not match the weight count")
        if self.equation.is_zero():
            raise WpsError("equation must be nonzero")
        degs = P.weighted_degrees(self.equation, self.weights)
        if degs != {self.degree}:
            raise WpsError(
                f"equation is not weighted-homogeneous of degree {self.degree}: "
                f"term degrees {sorted(degs)}"
            )

    @property
    def vars(self) -> tuple[str, ...]:
        return self.equation.vars


def wellformed(weights: tuple[int, ...]) -> bool:
    """gcd of every n-of-(n+1) subset of the weights is 1."""
    if any(w < 1 for w in weights):
        raise WpsError("weights must be positive")
    n = len(weights)
    for skip in range(n):
        g = 0
        for i, w in enumerate(weights):
            if i != skip:
                g = gcd(g, w)
        if g != 1:
            return False
    return True


# -- univariate helpers (dense Fraction coefficient lists) --------------


def _uni_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _uni_deg(p: list[Fraction]) -> int:
    return len(p) - 1


def _uni_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    db, lb = _uni_deg(b), b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 1)
    while a and _uni_deg(a) >= db:
        shift = _uni_deg(a) - db
        factor = a[-1] / lb
        quot[shift] = factor
        for k in range(db + 1):
            a[shift + k] -= factor * b[k]
        _uni_trim(a)
    return _uni_trim(quot), a


def _uni_monic(p: list[Fraction]) -> list[Fraction]:
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _uni_divmod(a, b)[1]
    return _uni_monic(a)


def _uni_derivative(p: list[Fraction]) -> list[Fraction]:
    return _uni_trim([p[k] * k for k in range(1, len(p))])


def _uni_squarefree(p: list[Fraction]) -> list[Fraction]:
    """Monic squarefree part; its degree counts the distinct complex roots."""
    if not p or _uni_deg(p) == 0:
        return _uni_monic(p)
    return _uni_monic(_uni_exact_div(p, _uni_gcd(p, _uni_derivative(p))))


def _uni_strip_origin(p: list[Fraction]) -> list[Fraction]:
    """The cofactor of the largest t^k factor."""
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    return p[k:]


def _uni_exact_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    quot, rem = _uni_divmod(a, b)
    if rem:
        raise InvariantError("inexact univariate division")
    return quot


def _uni_render(p: list[Fraction], name: str) -> str:
    terms = {(k,): c for k, c in enumerate(p) if c != 0}
    return P.render(Poly((name,), terms))


def _line_forms(f: Poly, i: int, j: int) -> tuple[list[list[Fraction]], list[bool]]:
    """f, d/dx_0 f, ..., d/dx_{n-1} f on the line {x_k = 0, k not in {i, j}}.

    One pass over the terms that survive there: those in x_i and x_j alone,
    and those linear in one further x_k (they survive only in d/dx_k f).
    Each form comes back as its coefficient list in x_j at x_i = 1 (empty
    when it vanishes on the line), with a flag saying whether it is nonzero
    at the x_j vertex.  The forms are weighted-homogeneous, so the exponent
    of x_j fixes the term.
    """
    coeffs: list[dict[int, Fraction]] = [{} for _ in range(f.arity + 1)]
    at_vertex = [False] * (f.arity + 1)
    for mono, c in f.terms.items():
        a, b = mono[i], mono[j]
        off = [k for k, e in enumerate(mono) if e and k != i and k != j]
        if not off:
            # (form, x_j exponent, coefficient, x_i exponent) in f, d/dx_i f, d/dx_j f
            images = ((0, b, c, a), (i + 1, b, a * c, a - 1), (j + 1, b - 1, b * c, a))
        elif len(off) == 1 and mono[off[0]] == 1:
            images = ((off[0] + 1, b, c, a),)
        else:
            continue
        for form, power, coeff, x_i_power in images:
            if coeff:
                coeffs[form][power] = coeff
                at_vertex[form] |= x_i_power == 0
    forms = [[terms.get(k, Fraction(0)) for k in range(max(terms, default=-1) + 1)] for terms in coeffs]
    return forms, at_vertex


# -- vertex reports ------------------------------------------------------


@dataclass(frozen=True)
class LocalModel:
    """Chart equation with the residual cyclic action on the chart variables."""

    variables: tuple[str, ...]
    equation: Poly
    action: QuotientType


@dataclass(frozen=True)
class VertexReport:
    index: int
    variable: str
    weight: int
    on_hypersurface: bool
    quasi_smooth: bool | None = None
    eliminated: str | None = None
    quotient: QuotientType | None = None
    normalized: QuotientType | None = None
    local_model: LocalModel | None = None


def vertex_report(surface: WpsHypersurface, i: int) -> VertexReport:
    """Inventory entry for the i-th coordinate point.

    One pass over the terms: the point lies on the hypersurface iff no pure
    power of x_i occurs.  On it, quasi-smoothness holds iff some term
    x_i^m x_j appears; the variable x_j of least index is then eliminated and
    the transverse quotient type is 1/w_i of the remaining weights.
    Otherwise the chart equation at x_i = 1 and the residual action are
    reported verbatim.
    """
    f = surface.equation
    n = f.arity
    if not 0 <= i < n:
        raise WpsError(f"coordinate index must lie in 0..{n - 1}, got {i}")
    w = surface.weights[i]
    eliminated = n  # the least j of a term x_i^m x_j; n while there is none
    for mono in f.terms:
        off = [k for k, e in enumerate(mono) if e and k != i]
        if not off:
            return VertexReport(index=i, variable=f.vars[i], weight=w, on_hypersurface=False)
        if len(off) == 1 and mono[off[0]] == 1:
            eliminated = min(eliminated, off[0])
    if eliminated == n:
        chart_vars = tuple(f.vars[k] for k in range(n) if k != i)
        chart_eq = P.assign(f, {i: 1})
        action = QuotientType(w, tuple(surface.weights[k] for k in range(n) if k != i))
        return VertexReport(
            index=i,
            variable=f.vars[i],
            weight=w,
            on_hypersurface=True,
            quasi_smooth=False,
            local_model=LocalModel(variables=chart_vars, equation=chart_eq, action=action),
        )
    transverse = tuple(
        surface.weights[k] for k in range(n) if k not in (i, eliminated)
    )
    quotient = QuotientType(w, transverse)
    return VertexReport(
        index=i,
        variable=f.vars[i],
        weight=w,
        on_hypersurface=True,
        quasi_smooth=True,
        eliminated=f.vars[eliminated],
        quotient=quotient,
        normalized=normalize_type(quotient),
    )


# -- stratum reports -----------------------------------------------------


@dataclass(frozen=True)
class StratumPointBatch:
    """An orbit-class family of stratum points sharing one description."""

    count: int
    point_poly: str
    quasi_smooth: bool
    stabilizer: int
    eliminated: str | None = None
    chart_variable: str | None = None
    quotient: QuotientType | None = None
    normalized: QuotientType | None = None


@dataclass(frozen=True)
class StratumReport:
    pair: tuple[int, int]
    variables: tuple[str, str]
    stabilizer: int
    contained: bool
    entirely_singular: bool
    quotient_curve: bool
    batches: tuple[StratumPointBatch, ...]
    vertex_flags: tuple[str, ...]


def stratum_report(surface: WpsHypersurface, i: int, j: int) -> StratumReport:
    """Inventory for the one-dimensional stratum {x_k = 0 for k not in {i, j}}.

    One read of f gives the line forms: the equation and every partial on
    the line, as univariate lists in x_j on the chart x_i = 1.  One gcd
    chain sorts the line's points.  It starts from the distinct nonzero
    roots of f (of the first nonzero partial when the line lies in f) and,
    partial by partial, splits off the roots where that partial is the first
    nonzero one: quasi-smooth points, reported as quotient points when the
    stabilizer is nontrivial, with that partial's variable eliminated.  By
    Euler's formula d*f = w_i*x_i*df/dx_i + w_j*x_j*df/dx_j, f vanishes
    wherever every partial does, so what the chain leaves over is exactly
    the non-quasi-smooth set.  Roots are counted exactly (squarefree degree)
    and identified under the residual mu_{w_i} action on the chart, whose
    effective order is w_i / gcd(w_i, w_j).
    """
    f = surface.equation
    n = f.arity
    if i == j:
        raise WpsError("stratum needs two distinct coordinates")
    if not (0 <= i < n and 0 <= j < n):
        raise WpsError(f"coordinate indices must lie in 0..{n - 1}, got {i} and {j}")
    if i > j:
        i, j = j, i
    wi, wj = surface.weights[i], surface.weights[j]
    stab = gcd(wi, wj)
    residual_order = wi // stab

    forms, at_vertex = _line_forms(f, i, j)
    system = [form for form in forms if form]
    contained = not forms[0]

    vertex_flags = []
    if all(form[0] == 0 for form in system):
        vertex_flags.append(f.vars[i])
    if not any(at_vertex):
        vertex_flags.append(f.vars[j])

    # distinct nonzero points of the line on the surface, in the x_i = 1 chart
    points = _uni_squarefree(_uni_strip_origin(system[0] if system else []))
    quotient_points = not contained and stab > 1
    batches: list[StratumPointBatch] = []
    for k, pk in enumerate(forms[1:]):
        if _uni_deg(points) < 1:
            break
        if not pk:
            continue
        shared = _uni_gcd(points, pk)
        batch_poly = _uni_exact_div(points, shared)
        points = shared
        if not quotient_points or _uni_deg(batch_poly) < 1:
            continue
        chart = i if k != i else j
        transverse = tuple(surface.weights[m] for m in range(n) if m not in (chart, k))
        quotient = QuotientType(stab, transverse)
        batches.append(
            StratumPointBatch(
                count=_orbit_count(_uni_deg(batch_poly), residual_order),
                point_poly=_uni_render(batch_poly, f.vars[j]),
                quasi_smooth=True,
                stabilizer=stab,
                eliminated=f.vars[k],
                chart_variable=f.vars[chart],
                quotient=quotient,
                normalized=normalize_type(quotient),
            )
        )
    if _uni_deg(points) >= 1:
        batches.insert(
            0,
            StratumPointBatch(
                count=_orbit_count(_uni_deg(points), residual_order),
                point_poly=_uni_render(points, f.vars[j]),
                quasi_smooth=False,
                stabilizer=stab,
            ),
        )

    return StratumReport(
        pair=(i, j),
        variables=(f.vars[i], f.vars[j]),
        stabilizer=stab,
        contained=contained,
        entirely_singular=not system,
        quotient_curve=contained and stab > 1,
        batches=tuple(batches),
        vertex_flags=tuple(vertex_flags),
    )


def _orbit_count(distinct_roots: int, residual_order: int) -> int:
    # the residual cyclic identification acts freely on nonzero chart points
    if distinct_roots % residual_order != 0:
        raise InvariantError(
            f"root count {distinct_roots} not divisible by the residual order {residual_order}"
        )
    return distinct_roots // residual_order


# -- anticanonical data --------------------------------------------------


def monomials_of_weighted_degree(weights: tuple[int, ...], target: int) -> list[Monomial]:
    """All exponent tuples with sum(w_i e_i) = target, graded-lex sorted."""
    out: list[Monomial] = []

    def recurse(pos: int, left: int, prefix: tuple[int, ...]):
        if pos == len(weights) - 1:
            if left % weights[pos] == 0:
                out.append(prefix + (left // weights[pos],))
            return
        w = weights[pos]
        for e in range(left // w + 1):
            recurse(pos + 1, left - e * w, prefix + (e,))

    if target >= 0:
        recurse(0, target, ())
    return sorted(out, key=P.grlex_key)


def anticanonical_data(weights: tuple[int, ...], degrees: tuple[int, ...]) -> tuple[int, list[Monomial]]:
    """Anticanonical degree sum(w) - sum(d) and the section monomial basis.

    The degree tuple has one entry per defining equation, so codimension-2
    complete intersections are covered by the same formula.
    """
    amp = sum(weights) - sum(degrees)
    return amp, monomials_of_weighted_degree(tuple(weights), amp)


def anticanonical(surface: WpsHypersurface) -> tuple[int, list[Monomial]]:
    return anticanonical_data(surface.weights, (surface.degree,))


@dataclass(frozen=True)
class ElephantReport:
    status: str  # "extracted" | "unsupported"
    reason: str | None = None
    section_variable: str | None = None
    equation: Poly | None = None
    weights: tuple[int, ...] | None = None


def elephant_equation(surface: WpsHypersurface) -> ElephantReport:
    """Restrict to (x_i = 0) when the unique anticanonical section is x_i."""
    amp, basis = anticanonical_data(surface.weights, (surface.degree,))
    if len(basis) != 1:
        return ElephantReport(
            status="unsupported",
            reason=f"anticanonical system has {len(basis)} monomial sections, need exactly 1",
        )
    section = basis[0]
    if sum(section) != 1:
        return ElephantReport(
            status="unsupported",
            reason="the unique anticanonical section is not a single coordinate",
        )
    i = section.index(1)
    residual_weights = tuple(w for k, w in enumerate(surface.weights) if k != i)
    restricted = P.assign(surface.equation, {i: 0})
    if not P.weighted_degrees(restricted, residual_weights) <= {surface.degree}:
        raise InvariantError("restricted equation is not quasi-homogeneous of the surface degree")
    return ElephantReport(
        status="extracted",
        section_variable=surface.vars[i],
        equation=restricted,
        weights=residual_weights,
    )


# -- full analysis -------------------------------------------------------


@dataclass(frozen=True)
class InventoryEntry:
    """One line of the singularity inventory, normalized for comparison."""

    location: str
    count: int
    kind: str  # "quotient" | "non_quasi_smooth" | "quotient_curve" | "singular_curve"
    type: str | None = None


@dataclass(frozen=True)
class WpsAnalysis:
    weights: tuple[int, ...]
    degree: int
    wellformed: bool
    vertices: tuple[VertexReport, ...]
    strata: tuple[StratumReport, ...]
    anticanonical_degree: int
    sections: tuple[Monomial, ...]
    h0: int
    elephant: ElephantReport
    inventory: tuple[InventoryEntry, ...]


def analyze(surface: WpsHypersurface) -> WpsAnalysis:
    """Vertex and stratum inventories plus anticanonical data.

    Only coordinate points and one-dimensional coordinate strata are
    searched; quasi-smoothness failures elsewhere are out of reach of these
    exact methods and are not reported.
    """
    n = surface.equation.arity
    vertices = tuple(vertex_report(surface, i) for i in range(n))
    strata = tuple(
        stratum_report(surface, i, j) for i in range(n) for j in range(i + 1, n)
    )
    amp, basis = anticanonical_data(surface.weights, (surface.degree,))
    inventory: list[InventoryEntry] = []
    for v in vertices:
        if not v.on_hypersurface:
            continue
        if v.quasi_smooth and v.weight > 1:
            inventory.append(
                InventoryEntry(
                    location=f"vertex {v.variable}",
                    count=1,
                    kind="quotient",
                    type=render_type(v.normalized),
                )
            )
        elif not v.quasi_smooth:
            inventory.append(
                InventoryEntry(
                    location=f"vertex {v.variable}",
                    count=1,
                    kind="non_quasi_smooth",
                )
            )
    for s in strata:
        loc = f"stratum ({s.variables[0]},{s.variables[1]})"
        if s.entirely_singular:
            inventory.append(InventoryEntry(location=loc, count=1, kind="singular_curve"))
        if s.quotient_curve:
            inventory.append(InventoryEntry(location=loc, count=1, kind="quotient_curve"))
        for batch in s.batches:
            if batch.quasi_smooth:
                inventory.append(
                    InventoryEntry(
                        location=loc,
                        count=batch.count,
                        kind="quotient",
                        type=render_type(batch.normalized),
                    )
                )
            else:
                inventory.append(
                    InventoryEntry(location=loc, count=batch.count, kind="non_quasi_smooth")
                )
    return WpsAnalysis(
        weights=surface.weights,
        degree=surface.degree,
        wellformed=wellformed(surface.weights),
        vertices=vertices,
        strata=strata,
        anticanonical_degree=amp,
        sections=tuple(basis),
        h0=len(basis),
        elephant=elephant_equation(surface),
        inventory=tuple(inventory),
    )
