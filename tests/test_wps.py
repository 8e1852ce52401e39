import io
import itertools
import json
import math
import random
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from elephantine import cli, cyclo, poly as P, wps
from elephantine.cyclo import QuotientType, normalize_type
from elephantine.wps import WpsError, WpsHypersurface

from _support import mono_str


def surface(weights, degree, text, vars):
    return WpsHypersurface(weights=weights, degree=degree, equation=P.parse_poly(text, vars))


X14 = surface((1, 2, 2, 3, 7), 14, "x^14+x^2*y1^6+w^2+y1^3*y2^4+y2^7+y1*z^4",
              ("x", "y1", "y2", "z", "w"))
X15A = surface((1, 2, 3, 5, 5), 15, "x^15+x*y^7+z^5+w1^3+w2^3", ("x", "y", "z", "w1", "w2"))
X16 = surface((1, 2, 3, 4, 7), 16, "x^16+x*(z^5+z*y^6)+y*u^2+w^4", ("x", "y", "z", "w", "u"))
X15B = surface((1, 1, 5, 5, 7), 15, "x^15+y^15+z^3+w^3+x*u^2", ("x", "y", "z", "w", "u"))


def normalized(r, weights):
    return normalize_type(QuotientType(r, weights))


def quotient_counter(analysis):
    counts = Counter()
    for entry in analysis.inventory:
        if entry.kind == "quotient":
            counts[entry.type] += entry.count
    return counts


def test_wellformed():
    assert wps.wellformed((1, 2, 2, 3, 7))
    assert not wps.wellformed((2, 2, 4, 6))
    assert wps.wellformed((1, 1, 5, 5, 7))
    assert wps.wellformed((2, 3, 4, 5, 6, 7))
    with pytest.raises(WpsError):
        wps.wellformed((0, 1, 2))


def test_orbit_count_mismatch_is_an_invariant_failure():
    # an internal invariant (CLI exit 1), not an input error (exit 2)
    with pytest.raises(P.InvariantError):
        wps._orbit_count(5, 2)


def test_equation_must_be_weighted_homogeneous():
    with pytest.raises(WpsError):
        surface((1, 2, 3), 6, "x^6+y^2", ("x", "y", "z"))


def test_vertex_reports_x15a():
    reports = {v.variable: v for v in (wps.vertex_report(X15A, i) for i in range(5))}
    assert not reports["x"].on_hypersurface  # pure power x^15
    assert not reports["z"].on_hypersurface  # pure power z^5
    y = reports["y"]
    assert y.on_hypersurface and y.quasi_smooth and y.eliminated == "x"
    assert y.quotient.weights == (1, 1, 1) and y.quotient.r == 2


def test_vertex_reports_x16():
    reports = {v.variable: v for v in (wps.vertex_report(X16, i) for i in range(5))}
    u = reports["u"]
    assert u.quasi_smooth and u.eliminated == "y"
    assert u.quotient == QuotientType(7, (1, 3, 4))
    z = reports["z"]
    assert z.quasi_smooth and z.eliminated == "x"
    assert z.normalized == normalized(3, (2, 1, 2))
    y = reports["y"]
    assert y.on_hypersurface and y.quasi_smooth is False
    model = y.local_model
    assert model.action == QuotientType(2, (1, 1, 0, 1))
    # the displayed chart equation contains the double-point core xz + w^4 + u^2
    core = P.parse_poly("x*z+w^4+u^2", model.variables)
    assert all(core.coefficient(m) == model.equation.coefficient(m) for m in core.terms)


def test_vertex_reports_x14():
    reports = {v.variable: v for v in (wps.vertex_report(X14, i) for i in range(5))}
    z = reports["z"]
    assert z.quasi_smooth and z.eliminated == "y1"
    assert z.quotient == QuotientType(3, (1, 2, 1))
    y1 = reports["y1"]
    assert y1.quasi_smooth is False
    assert sorted(y1.local_model.action.weights) == [0, 1, 1, 1]
    core = P.parse_poly("x^2+w^2+z^4+y2^4", y1.local_model.variables)
    assert all(
        core.coefficient(m) == y1.local_model.equation.coefficient(m) for m in core.terms
    )
    assert not reports["w"].on_hypersurface  # pure power w^2
    assert not reports["y2"].on_hypersurface  # pure power y2^7


def test_stratum_x14_y1_y2():
    report = wps.stratum_report(X14, 1, 2)
    assert report.stabilizer == 2
    assert not report.contained
    quotient_batches = [b for b in report.batches if b.quasi_smooth]
    assert len(quotient_batches) == 1
    batch = quotient_batches[0]
    assert batch.count == 3
    assert batch.normalized == normalized(2, (1, 1, 1))
    assert batch.eliminated == "y1"
    # the non-quasi-smooth vertex at the y1 end of this stratum is its
    # vertex report's, not counted among the stratum's points
    y1 = wps.vertex_report(X14, report.pair[0])
    assert y1.variable == "y1" and y1.on_hypersurface and y1.quasi_smooth is False
    assert not [b for b in report.batches if not b.quasi_smooth]


def test_stratum_x15a_w1_w2():
    report = wps.stratum_report(X15A, 3, 4)
    assert report.stabilizer == 5
    batch = next(b for b in report.batches if b.quasi_smooth)
    assert batch.count == 3
    assert batch.quotient == QuotientType(5, (1, 2, 3))
    assert batch.eliminated == "w1"


def test_stratum_x16_y_z():
    report = wps.stratum_report(X16, 1, 2)
    assert report.contained  # no equation terms survive on the stratum
    assert not report.entirely_singular
    non_qs = [b for b in report.batches if not b.quasi_smooth]
    assert len(non_qs) == 1
    assert non_qs[0].count == 2  # four roots of z^4 = -y^6 in two orbit pairs
    # of the two ends, only the y vertex is on X and not quasi-smooth
    ends = [wps.vertex_report(X16, k) for k in report.pair]
    assert [v.variable for v in ends if v.on_hypersurface and not v.quasi_smooth] == ["y"]


def test_orbit_identification_internal_consistency():
    # distinct roots = orbit count * residual order, stratum by stratum
    for X in (X14, X15A, X16, X15B):
        n = len(X.weights)
        for i in range(n):
            for j in range(i + 1, n):
                report = wps.stratum_report(X, i, j)
                for batch in report.batches:
                    residual = X.weights[i] // report.stabilizer
                    roots = batch.point_poly
                    degree = max(
                        sum(m) for m in P.parse_poly(roots, (report.variables[1],)).terms
                    )
                    assert degree == batch.count * residual


def test_full_inventories_match_known_singularity_lists():
    inv14 = quotient_counter(wps.analyze(X14))
    assert inv14 == Counter({
        cyclo.render_type(normalized(2, (1, 1, 1))): 3,
        cyclo.render_type(normalized(3, (1, 2, 1))): 1,
    })
    assert sum(1 for e in wps.analyze(X14).inventory if e.kind == "non_quasi_smooth") == 1

    inv15a = quotient_counter(wps.analyze(X15A))
    assert inv15a == Counter({
        cyclo.render_type(normalized(2, (1, 1, 1))): 1,
        cyclo.render_type(normalized(5, (1, 2, 3))): 3,
    })

    analysis16 = wps.analyze(X16)
    inv16 = quotient_counter(analysis16)
    assert inv16 == Counter({
        cyclo.render_type(normalized(3, (2, 1, 2))): 1,
        cyclo.render_type(normalized(7, (1, 3, 4))): 1,
    })
    non_qs = [e for e in analysis16.inventory if e.kind == "non_quasi_smooth"]
    assert sorted((e.location, e.count) for e in non_qs) == [
        ("stratum (y,z)", 2),
        ("vertex y", 1),
    ]

    inv15b = quotient_counter(wps.analyze(X15B))
    assert inv15b == Counter({
        cyclo.render_type(normalized(5, (1, 1, 2))): 3,
        cyclo.render_type(normalized(7, (1, 5, 5))): 1,
    })


def test_anticanonical_data():
    amp, basis = wps.anticanonical_data((1, 2, 3, 5, 5), (15,))
    assert amp == 1 and [mono_str(m, X15A.vars) for m in basis] == ["x"]
    assert wps.anticanonical(X15A) == (amp, basis)

    amp, basis = wps.anticanonical_data((1, 1, 5, 5, 7), (15,))
    assert amp == 4 and len(basis) == 5
    rendered = {mono_str(m, X15B.vars) for m in basis}
    assert rendered == {"x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4"}

    amp, basis = wps.anticanonical_data((2, 3, 4, 5, 6, 7), (12, 14))
    assert amp == 1 and basis == []


def test_anticanonical_additive_over_degrees():
    amp_sum, _ = wps.anticanonical_data((2, 3, 4, 5, 6, 7), (12, 14))
    amp1, _ = wps.anticanonical_data((2, 3, 4, 5, 6, 7), (12,))
    assert amp_sum == amp1 - 14


def test_elephant_extractions():
    e = wps.elephant_equation(X15A)
    assert e.status == "extracted" and e.section_variable == "x"
    assert e.equation == P.parse_poly("z^5+w1^3+w2^3", ("y", "z", "w1", "w2"))
    assert e.weights == (2, 3, 5, 5)

    e = wps.elephant_equation(X16)
    assert e.equation == P.parse_poly("y*u^2+w^4", ("y", "z", "w", "u"))
    assert e.weights == (2, 3, 4, 7)

    e = wps.elephant_equation(X14)
    assert e.equation == P.parse_poly(
        "w^2+y1^3*y2^4+y2^7+y1*z^4", ("y1", "y2", "z", "w")
    )
    assert e.weights == (2, 2, 3, 7)

    e = wps.elephant_equation(X15B)
    assert e.status == "unsupported"


def test_elephant_is_weighted_homogeneous():
    for X in (X14, X15A, X16):
        e = wps.elephant_equation(X)
        assert P.weighted_degrees(e.equation, e.weights) == {X.degree}


def test_elephant_of_x16_has_singular_curve():
    # the anticanonical divisor w^4 + y u^2 in P(2,3,4,7) is singular along
    # the whole (y, z)-stratum and at one more point
    e = wps.elephant_equation(X16)
    D = WpsHypersurface(weights=e.weights, degree=X16.degree, equation=e.equation)
    analysis = wps.analyze(D)
    singular_curves = [x for x in analysis.inventory if x.kind == "singular_curve"]
    assert len(singular_curves) == 1
    assert singular_curves[0].location == "stratum (y,z)"


def test_analysis_wellformed_and_h0():
    a = wps.analyze(X15B)
    assert a.wellformed
    assert a.anticanonical_degree == 4
    assert a.h0 == 5
    assert a.elephant.status == "unsupported"


def test_analysis_runs_on_non_wellformed_weights():
    X = surface((2, 2, 4, 6), 8, "x^4+y^4+z^2+w*y", ("x", "y", "z", "w"))
    analysis = wps.analyze(X)
    assert not analysis.wellformed


def test_vertex_off_hypersurface_has_no_quasi_smooth_data():
    v = wps.vertex_report(X15A, 0)  # pure power x^15
    assert not v.on_hypersurface
    assert v.quasi_smooth is None and v.quotient is None and v.local_model is None


def _reference_line_forms(f, i, j):
    # f and each P.partials(f) restricted to the terms supported on {i, j},
    # dehomogenized at x_i = 1 and evaluated at the x_j vertex, one by one
    forms, at_vertex = [], []
    for form in [f] + P.partials(f):
        line = {
            mono: c for mono, c in form.terms.items()
            if all(e == 0 or k in (i, j) for k, e in enumerate(mono))
        }
        coeffs = Counter()
        for mono, c in line.items():
            coeffs[mono[j]] += c
        dense = [Fraction(coeffs[k]) for k in range(max(coeffs, default=-1) + 1)]
        while dense and dense[-1] == 0:
            dense.pop()
        forms.append(dense)
        vertex_terms = [c for mono, c in line.items() if all(e == 0 for k, e in enumerate(mono) if k != j)]
        at_vertex.append(sum(vertex_terms) != 0)
    return forms, at_vertex


def _uni_sum(a, b):
    width = max(len(a), len(b))
    return wps._uni_trim([
        (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(width)
    ])


def test_line_forms_match_restricted_partials():
    rng = random.Random(8)
    names = ("x", "y", "z", "t", "w")
    strata = Counter()
    for _ in range(300):
        n = rng.randint(3, 5)
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        degree = rng.randint(2, 18)
        monos = wps.monomials_of_weighted_degree(weights, degree)
        if not monos:
            continue
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 6)))
        terms = {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3)) for m in chosen}
        X = WpsHypersurface(weights, degree, P.Poly(names[:n], terms))
        for i in range(n):
            for j in range(n):
                if i != j:
                    forms = wps._line_forms(X.equation, i, j)
                    assert forms == _reference_line_forms(X.equation, i, j)[0]
                    # Euler on the chart x_i = 1, x_j = t: d*F = w_i*P_i + w_j*t*P_j,
                    # so F vanishes wherever every partial does
                    assert [degree * c for c in forms[0]] == _uni_sum(
                        [weights[i] * c for c in forms[i + 1]],
                        [Fraction(0)] + [weights[j] * c for c in forms[j + 1]],
                    )
        for report in wps.analyze(X).strata:
            strata["contained"] += report.contained
            strata["entirely_singular"] += report.entirely_singular
            strata["points"] += bool(report.batches)
    # the sample reaches every kind of stratum the line forms feed
    assert min(strata["contained"], strata["entirely_singular"], strata["points"]) >= 10, strata


def _two_pass_stratum_report(X, i, j):
    # the stratum report as two gcd passes: the common zeros of f and every
    # partial first, then a chain over the partials for the remaining roots
    # of f; a line on which every form vanishes is answered before either
    f = X.equation
    n = f.arity
    i, j = min(i, j), max(i, j)
    wi, wj = X.weights[i], X.weights[j]
    stab = math.gcd(wi, wj)
    residual_order = wi // stab
    forms = _reference_line_forms(f, i, j)[0]
    system = [form for form in forms if form]
    contained = not forms[0]
    pair, names = (i, j), (f.vars[i], f.vars[j])
    if not system:
        return wps.StratumReport(pair, names, stab, True, True, stab > 1, ())
    sing = system[0]
    for form in system[1:]:
        sing = wps._uni_gcd(sing, form)
    sing = wps._uni_strip_origin(sing)
    sing = wps._uni_squarefree(sing)[0] if sing else sing
    batches = []
    if sing and wps._uni_deg(sing) >= 1:
        batches.append(wps.StratumPointBatch(
            count=wps._orbit_count(wps._uni_deg(sing), residual_order),
            point_poly=wps._uni_render(sing, f.vars[j]),
            quasi_smooth=False,
        ))
    if not contained and stab > 1:
        remaining = wps._uni_squarefree(wps._uni_strip_origin(forms[0]))[0]
        if sing and wps._uni_deg(sing) >= 1:
            remaining = wps._uni_exact_div(remaining, wps._uni_gcd(remaining, sing))
        for k, pk in enumerate(forms[1:]):
            if wps._uni_deg(remaining) < 1:
                break
            if not pk:
                continue
            shared = wps._uni_gcd(remaining, pk)
            batch_poly = wps._uni_exact_div(remaining, shared)
            remaining = shared
            if wps._uni_deg(batch_poly) < 1:
                continue
            chart = i if k != i else j
            quotient = QuotientType(stab, tuple(X.weights[m] for m in range(n) if m not in (chart, k)))
            batches.append(wps.StratumPointBatch(
                count=wps._orbit_count(wps._uni_deg(batch_poly), residual_order),
                point_poly=wps._uni_render(batch_poly, f.vars[j]),
                quasi_smooth=True,
                eliminated=f.vars[k],
                chart_variable=f.vars[chart],
                quotient=quotient,
                normalized=normalize_type(quotient),
            ))
        # every root of f off the non-quasi-smooth set has a nonzero partial
        assert wps._uni_deg(remaining) < 1
    return wps.StratumReport(pair, names, stab, contained, False, contained and stab > 1, tuple(batches))


def _two_scan_vertex_report(X, i):
    # the vertex report as 1 + (n - 1) scans of the terms: one for a pure
    # power of x_i, then one per j for a term x_i^m x_j
    f = X.equation
    n = f.arity
    w = X.weights[i]
    if any(all(e == 0 for k, e in enumerate(mono) if k != i) for mono in f.terms):
        return wps.VertexReport(i, f.vars[i], w, False)
    eliminated = next((
        j for j in range(n) if j != i and any(
            mono[j] == 1 and all(e == 0 for k, e in enumerate(mono) if k not in (i, j))
            for mono in f.terms
        )
    ), None)
    if eliminated is None:
        chart_vars = tuple(f.vars[k] for k in range(n) if k != i)
        action = QuotientType(w, tuple(X.weights[k] for k in range(n) if k != i))
        return wps.VertexReport(
            i, f.vars[i], w, True, False,
            local_model=wps.LocalModel(chart_vars, P.assign(f, {i: 1}), action),
        )
    quotient = QuotientType(w, tuple(X.weights[k] for k in range(n) if k not in (i, eliminated)))
    return wps.VertexReport(
        i, f.vars[i], w, True, True, f.vars[eliminated], quotient, normalize_type(quotient)
    )


def _random_surface(rng):
    names = ("x", "y", "z", "t", "w")
    n = rng.randint(3, 5)
    weights = [rng.randint(1, 4) for _ in range(n)]
    if rng.random() < 0.3:
        # a common factor on all weights but one: not well-formed
        factor = rng.choice((2, 3))
        weights = [w * factor if k else w for k, w in enumerate(weights)]
    weights = tuple(weights)
    half = rng.randint(1, 6)
    monos = wps.monomials_of_weighted_degree(weights, half)
    if not monos:
        return None

    def form(monos, size):
        chosen = rng.sample(monos, min(len(monos), size))
        return P.Poly(names[:n], {m: Fraction(rng.randint(-3, 3) or 1) for m in chosen})

    if rng.random() < 0.4:
        # products of two or three forms from a pool of two: squares put
        # repeated roots on the lines, and g^2*h simple ones beside them
        pool = [form(monos, rng.randint(1, 3)) for _ in range(2)]
        factors = [rng.choice(pool) for _ in range(rng.choice((2, 3, 3)))]
        degree = len(factors) * half
        f = factors[0]
        for factor in factors[1:]:
            f = f * factor
        if rng.random() < 0.3:
            f = f + form(wps.monomials_of_weighted_degree(weights, degree), 1)
    else:
        shape = rng.random()
        degree = 2 * half if shape < 0.5 else half
        f = form(wps.monomials_of_weighted_degree(weights, degree), rng.randint(1, 6))
    if f.is_zero():
        return None
    return WpsHypersurface(weights, degree, f)


def test_stratum_report_matches_two_pass_reference():
    # every coordinate point against the two-scan vertex reference, every
    # coordinate line against the two-pass stratum reference
    rng = random.Random(21)
    seen = Counter()
    surfaces = 0
    while surfaces < 2000:
        X = _random_surface(rng)
        if X is None:
            continue
        surfaces += 1
        seen["not_wellformed"] += not wps.wellformed(X.weights)
        n = len(X.weights)
        for i in range(n):
            vertex = wps.vertex_report(X, i)
            assert vertex == _two_scan_vertex_report(X, i), (X, i)
            seen[f"vertex_quasi_smooth_{vertex.quasi_smooth}"] += 1
            for j in range(i + 1, n):
                report = wps.stratum_report(X, j, i)
                assert report == _two_pass_stratum_report(X, i, j), (X, i, j)
                kinds = {batch.quasi_smooth for batch in report.batches}
                seen["contained"] += report.contained
                seen["entirely_singular"] += report.entirely_singular
                seen["quotient_curve"] += report.quotient_curve
                seen["non_qs_on_line_not_in_f"] += not report.contained and False in kinds
                seen["quotient_points"] += True in kinds
                seen["both_kinds"] += kinds == {False, True}
    # the sample reaches every branch of both reports
    assert min(seen.values()) >= 10 and len(seen) == 10, seen


def _reference_vertex_flags(f, i, j):
    # the end-vertex rule read off the line forms: the x_i end (t = 0 on the
    # chart x_i = 1) when every form vanishes there, the x_j end when no form
    # has a term free of x_i
    forms, at_vertex = _reference_line_forms(f, i, j)
    flags = []
    if all(not form or form[0] == 0 for form in forms):
        flags.append(f.vars[i])
    if not any(at_vertex):
        flags.append(f.vars[j])
    return flags


def test_cli_vertex_flags_match_the_end_vertex_rule():
    # the CLI flags a line's ends from their vertex reports; the reference
    # reads the end-vertex rule off the line forms instead
    rng = random.Random(28)
    seen = Counter()
    surfaces = 0
    while surfaces < 400:
        X = _random_surface(rng)
        if X is None:
            continue
        surfaces += 1
        # --equation=... keeps a leading minus sign from reading as an option
        argv = ["wps", "--weights", ",".join(map(str, X.weights)), "--degree", str(X.degree),
                f"--equation={P.render(X.equation)}", "--vars", ",".join(X.vars)]
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.run(argv) == 0
        strata = json.loads(out.getvalue())["result"]["strata"]
        n = len(X.weights)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert [record["variables"] for record in strata] == [
            [X.vars[i], X.vars[j]] for i, j in pairs]
        for record, (i, j) in zip(strata, pairs):
            assert record["vertex_flags"] == _reference_vertex_flags(X.equation, i, j), (X, i, j)
            seen["strata"] += 1
            seen["flagged"] += bool(record["vertex_flags"])
            seen["both_ends"] += len(record["vertex_flags"]) == 2
            seen["contained"] += record["contained_in_hypersurface"]
            seen["entirely_singular"] += record["entirely_singular"]
    # lines with no flag, one and two, inside X and entirely singular: the
    # comparison is not vacuous
    assert seen == {"strata": 2640, "flagged": 1798, "both_ends": 1001, "contained": 1307,
                    "entirely_singular": 844}, seen


def _plain_euclid(a, b):
    # Euclid run to a zero remainder, then made monic: the reference gcd
    a, b = list(a), list(b)
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            factor, shift = rem[-1] / b[-1], len(rem) - len(b)
            for k, c in enumerate(b):
                rem[shift + k] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        a, b = b, rem
    return [c / a[-1] for c in a] if a else a


def _random_uni(rng, degree):
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]
    if degree >= 0:
        coeffs[-1] = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
    return coeffs


def _uni_product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for k, c in enumerate(a):
        for m, d in enumerate(b):
            out[k + m] += c * d
    return out


def test_uni_gcd_matches_plain_euclid():
    # a shared factor gives a nontrivial gcd; coprime pairs run into a
    # nonzero constant remainder, where the chain stops early
    rng = random.Random(27)
    seen = Counter()
    for _ in range(600):
        common = _random_uni(rng, rng.choice((-1, 0, 0, 1, 2)))
        a = _random_uni(rng, rng.randint(-1, 4))
        b = _random_uni(rng, rng.randint(-1, 4))
        if common:
            a, b = _uni_product(a, common) if a else a, _uni_product(b, common) if b else b
        expected = _plain_euclid(a, b)
        assert wps._uni_gcd(a, b) == expected, (a, b)
        seen["zero" if not expected else "one" if len(expected) == 1 else "nontrivial"] += 1
        if len(a) > 1:
            part, repeated = wps._uni_squarefree(a)
            assert repeated == _plain_euclid(a, wps._uni_derivative(a))
            assert _uni_product(part, repeated) == [c / a[-1] for c in a]
    assert min(seen.values()) >= 10 and len(seen) == 3, seen
    # division by 1 is a copy of the dividend
    a = _random_uni(rng, 3)
    quotient = wps._uni_exact_div(a, [Fraction(1)])
    assert quotient == a and quotient is not a


def test_coordinate_indices_out_of_range_are_input_errors():
    n = len(X15A.weights)
    for i in (-1, n):
        with pytest.raises(WpsError):
            wps.vertex_report(X15A, i)
        with pytest.raises(WpsError):
            wps.stratum_report(X15A, 0, i)
        with pytest.raises(WpsError):
            wps.stratum_report(X15A, i, 0)
    # in range, the last vertex is read as before: w2^3 is a pure power
    assert not wps.vertex_report(X15A, n - 1).on_hypersurface


# -- Kawamata's identity: an oracle for the basket ---------------------------
#
# For a quasi-smooth, well-formed X_d in P(a_0, ..., a_4) with terminal cyclic
# quotient points P of index r_P and chi(O_X) = 1, Kawamata's formula (in
# Reid's plurigenus form) reads -K.c_2 + sum_P (r_P - 1/r_P) = 24.  Here
# c(X) = prod(1 + a_i H)/(1 + d H) and H^3 = d/prod(a_i), so with e_k the
# elementary symmetric functions of the weights
#     -K.c_2 = (e_1 - d) * (e_2 - d*e_1 + d^2) * d/prod(a_i),
# from the weights alone, while the basket comes from the inventory.

_FANO_NAMES = ("x", "y", "z", "t", "w")


def _fano_hypersurface(rng):
    """X_d in P(a_0, ..., a_4) with d = sum(a) - 1: every coordinate gets a pure
    power or a term x_i^e * x_j, and three more monomials of degree d join them."""
    while True:
        weights = tuple(sorted(rng.randint(1, 9) for _ in range(5)))
        degree = sum(weights) - 1
        monos = wps.monomials_of_weighted_degree(weights, degree)
        chosen = []
        for i, w in enumerate(weights):
            tips = ([m for m in monos if m[i] * w == degree]
                    or [m for m in monos if m[i] and sum(m) == m[i] + 1])
            if not tips:
                break
            chosen.append(rng.choice(tips))
        else:
            rest = [m for m in monos if m not in chosen]
            chosen += rng.sample(rest, min(3, len(rest)))
            terms = {m: rng.choice((-1, 1)) * rng.randint(1, 5) for m in chosen}
            return WpsHypersurface(weights, degree, P.Poly(_FANO_NAMES, terms))


def _kawamata_basket(analysis):
    """The types of a well-formed inventory of terminal quotient points only, else None."""
    if not analysis.wellformed or any(entry.kind != "quotient" for entry in analysis.inventory):
        return None
    basket = [(entry.count, cyclo.parse_type(entry.type)) for entry in analysis.inventory]
    if not all(cyclo.is_terminal_3fold(q) for _, q in basket):
        return None
    return basket


def _kawamata_sum(analysis, basket):
    a, d = analysis.weights, analysis.degree
    e1 = sum(a)
    e2 = sum(x * y for x, y in itertools.combinations(a, 2))
    total = Fraction((e1 - d) * (e2 - d * e1 + d * d) * d, math.prod(a))
    return total + sum(count * (q.r - Fraction(1, q.r)) for count, q in basket)


def test_kawamata_identity_on_x15a():
    # the one surface of tests/data/surfaces.txt the identity applies to:
    # X14 and X16 have non-quasi-smooth points, and X15B has d != sum(a) - 1
    # and a non-terminal point 1/7(1,1,3)
    analysis = wps.analyze(X15A)
    basket = _kawamata_basket(analysis)
    assert sorted((count, str(q)) for count, q in basket) == [
        (1, "1/2(1,1,1)"), (3, "1/5(1,2,3)")]
    assert _kawamata_sum(analysis, basket) == 24
    assert [_kawamata_basket(wps.analyze(X)) for X in (X14, X16, X15B)] == [None] * 3


def test_kawamata_identity_on_generated_fano_hypersurfaces():
    rng = random.Random(26)
    qualifying = with_stratum_points = 0
    for _ in range(600):
        analysis = wps.analyze(_fano_hypersurface(rng))
        basket = _kawamata_basket(analysis)
        if basket is None:
            continue
        qualifying += 1
        with_stratum_points += any(
            entry.location.startswith("stratum") for entry in analysis.inventory)
        assert _kawamata_sum(analysis, basket) == 24, analysis
    # the identity is checked on enough surfaces, most with points on a stratum
    assert (qualifying, with_stratum_points) == (113, 104)
