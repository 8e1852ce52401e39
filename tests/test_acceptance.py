"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Every tolerance here is exact: the toolkit computes over the rationals and
the expected values are checked as equalities.
"""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

from elephantine import cli, cyclo, duval, locdef, poly as P, wblow, wps
from elephantine.cyclo import QuotientType, normalize_type, render_type
from elephantine.poly import Poly
from elephantine.wblow import WeightVector

from _support import (
    mono_str,
    random_poly,
    random_primitive_weights,
    random_quotient_type,
    random_semi_invariant,
    random_unimodular_yz,
)

V2 = ("y", "z")
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "u")


def _verdict(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _run_cli_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def test_criterion_1_blowup_chart_cover():
    def body():
        report = _run_cli_json([
            "blowup",
            "--type", "1/4(1,3,2,1)",
            "--weights", "1/4(1,3,2,1)",
            "--divisor", "x^2+y^2+z^3+u^2",
        ])
        result = report["result"]
        assert [c["type"] for c in result["charts"]] == [
            "1/1(0,0,0,0)", "1/3(2,1,1,2)", "1/2(1,1,0,1)", "1/1(0,0,0,0)"
        ]
        expected_equations = [
            "1+x*(y^2+z^3)+u^2",
            "x^2+y*(1+z^3)+u^2",
            "x^2+z*(1+y^2)+u^2",
            "x^2+u*(y^2+z^3)+1",
        ]
        for chart, text in zip(result["charts"], expected_equations):
            assert P.parse_poly(chart["equation"], V4) == P.parse_poly(text, V4)
        assert result["divisor_weight"] == "1/2"
        # ambient exceptional coefficient (7-4)/4, and the induced canonical
        # discrepancy of the hypersurface itself: 3/4 - 1/2 = 1/4
        assert result["canonical_discrepancy"] == "3/4"
        assert result["pair_discrepancy"] == "1/4"
        assert Fraction(result["canonical_discrepancy"]) - Fraction(
            result["divisor_weight"]
        ) == Fraction(1, 4)

    _verdict(1, "weighted blow-up of the hyperquotient germ: charts, equations, discrepancies", body)


def test_criterion_2_discrepancy_identities():
    def body():
        r = wblow.pair_discrepancy(
            QuotientType(2, (1, 1, 1)),
            P.parse_poly("x^3+y^3+z^3", V3),
            WeightVector((1, 1, 1), 2),
        )
        assert r.pair == -1 and r.pair_is_integer

        smooth = cyclo.smooth_type(3)
        r = wblow.pair_discrepancy(
            smooth,
            P.parse_poly("x^2+y^3+y*z^4+z^6", V3),
            WeightVector((3, 2, 1), 1),
        )
        assert r.pair == -1

        rng = random.Random(202)
        v = WeightVector((1, 1, 1), 1)
        for _ in range(20):
            order = rng.randint(3, 6)
            terms = {}
            while not terms:
                for _ in range(rng.randint(1, 5)):
                    mono = tuple(rng.randint(0, 4) for _ in range(3))
                    if sum(mono) >= order:
                        terms[mono] = Fraction(rng.randint(1, 5))
            lead = [0, 0, 0]
            for pos in range(order):
                lead[rng.randrange(3)] += 1
            terms[tuple(lead)] = Fraction(rng.randint(1, 5))
            f = Poly(V3, terms)
            assert P.order(f) == order
            assert wblow.pair_discrepancy(smooth, f, v).pair == 2 - order

    _verdict(2, "pair discrepancies: quotient germ, (3,2,1) germ, and 2 - mult for 20 random germs", body)


def test_criterion_3_classifier_vs_milnor_oracle():
    def body():
        for k in range(1, 9):
            f = P.parse_poly(f"x^2+y^2+z^{k + 1}", V3)
            report = duval.classify_germ(f)
            assert (report.family, report.index) == ("A", k)
            assert locdef.milnor_number(f) == k
        for k in range(4, 9):
            f = P.parse_poly(f"x^2+y^2*z+z^{k - 1}", V3)
            report = duval.classify_germ(f)
            assert (report.family, report.index) == ("D", k)
            assert locdef.milnor_number(f) == k
        for text, label, mu in [
            ("x^2+y^3+z^4", "E6", 6),
            ("x^2+y^3+y*z^3", "E7", 7),
            ("x^2+y^3+z^5", "E8", 8),
        ]:
            f = P.parse_poly(text, V3)
            report = duval.classify_germ(f)
            assert report.label == label
            assert locdef.milnor_number(f) == mu

    _verdict(3, "Du Val classifier agrees with the Milnor oracle on the A/D/E corpus", body)


def test_criterion_4_t1_eigenpart_of_quotient_cubic():
    def body():
        report = locdef.t1_eigenpart(
            P.parse_poly("x^3+y^3+z^3", V3), QuotientType(2, (1, 1, 1))
        )
        basis = {mono_str(m, V3) for m in report.basis}
        assert report.dimension == 3 and basis == {"x", "y", "z"}, (
            "the character eigenpart of the 8-dimensional Milnor algebra is "
            f"{sorted(basis)} (dimension {report.dimension}): the class x*y*z "
            "shares the character of the equation and survives the Jacobian "
            "ideal, so a 3-dimensional answer can only omit it by dropping a "
            "class that lies in the image of m^2"
        )

    _verdict(4, "deformation eigenpart of the order-2 quotient cubic has basis {x, y, z}", body)


def test_criterion_5_weighted_hypersurface_inventories():
    def body():
        def quotient_counts(analysis):
            counts = Counter()
            for e in analysis.inventory:
                if e.kind == "quotient":
                    counts[e.type] += e.count
            return counts

        def norm(r, weights):
            return render_type(normalize_type(QuotientType(r, weights)))

        x14 = wps.analyze(wps.WpsHypersurface(
            weights=(1, 2, 2, 3, 7), degree=14,
            equation=P.parse_poly(
                "x^14+x^2*y1^6+w^2+y1^3*y2^4+y2^7+y1*z^4", ("x", "y1", "y2", "z", "w")
            ),
        ))
        assert quotient_counts(x14) == Counter({norm(2, (1, 1, 1)): 3, norm(3, (1, 2, 1)): 1})
        stratum_entries = [
            e for e in x14.inventory
            if e.kind == "quotient" and e.location == "stratum (y1,y2)"
        ]
        assert len(stratum_entries) == 1 and stratum_entries[0].count == 3
        assert stratum_entries[0].type == norm(2, (1, 1, 1))
        z14 = next(v for v in x14.vertices if v.variable == "z")
        assert render_type(z14.normalized) == norm(3, (1, 2, 1))
        non_qs = [e for e in x14.inventory if e.kind == "non_quasi_smooth"]
        assert len(non_qs) == 1
        bad_vertex = next(v for v in x14.vertices if v.on_hypersurface and not v.quasi_smooth)
        assert bad_vertex.local_model is not None

        x15a = wps.analyze(wps.WpsHypersurface(
            weights=(1, 2, 3, 5, 5), degree=15,
            equation=P.parse_poly("x^15+x*y^7+z^5+w1^3+w2^3", ("x", "y", "z", "w1", "w2")),
        ))
        assert quotient_counts(x15a) == Counter({norm(2, (1, 1, 1)): 1, norm(5, (1, 2, 3)): 3})
        assert x15a.h0 == 1
        assert x15a.elephant.equation == P.parse_poly(
            "z^5+w1^3+w2^3", ("y", "z", "w1", "w2")
        )

        x16 = wps.analyze(wps.WpsHypersurface(
            weights=(1, 2, 3, 4, 7), degree=16,
            equation=P.parse_poly("x^16+x*(z^5+z*y^6)+y*u^2+w^4", ("x", "y", "z", "w", "u")),
        ))
        counts = quotient_counts(x16)
        assert counts[norm(3, (2, 1, 2))] == 1
        assert counts[norm(7, (1, 3, 4))] == 1
        z16 = next(v for v in x16.vertices if v.variable == "z")
        assert render_type(z16.normalized) == norm(3, (2, 1, 2))
        u16 = next(v for v in x16.vertices if v.variable == "u")
        assert u16.quotient == QuotientType(7, (1, 3, 4))
        yz = next(s for s in x16.strata if s.variables == ("y", "z"))
        off_vertex = [b for b in yz.batches if not b.quasi_smooth]
        assert len(off_vertex) == 1 and off_vertex[0].count == 2
        y16 = next(v for v in x16.vertices if v.variable == "y")  # an end of the (y, z) line
        assert y16.on_hypersurface and not y16.quasi_smooth
        assert x16.elephant.equation == P.parse_poly("y*u^2+w^4", ("y", "z", "w", "u"))

        x15b = wps.analyze(wps.WpsHypersurface(
            weights=(1, 1, 5, 5, 7), degree=15,
            equation=P.parse_poly("x^15+y^15+z^3+w^3+x*u^2", ("x", "y", "z", "w", "u")),
        ))
        assert quotient_counts(x15b) == Counter({norm(5, (1, 1, 2)): 3, norm(7, (1, 5, 5)): 1})
        assert x15b.anticanonical_degree == 4 and x15b.h0 == 5

        amp, basis = wps.anticanonical_data((2, 3, 4, 5, 6, 7), (12, 14))
        assert amp == 1 and len(basis) == 0

    _verdict(5, "weighted-hypersurface inventories, anticanonical data, and elephants", body)


def test_criterion_6_property_suites():
    def body():
        rng = random.Random(606)

        # weight additivity under products
        for _ in range(220):
            f = random_poly(rng, V3, nonzero=True)
            g = random_poly(rng, V3, nonzero=True)
            nums = tuple(rng.randint(1, 6) for _ in range(3))
            r = rng.randint(1, 4)
            assert P.weight(f * g, nums, r) == P.weight(f, nums, r) + P.weight(g, nums, r)

        # normalize_type idempotence and orbit constancy, r <= 30 brute force
        for _ in range(220):
            r = rng.randint(1, 30)
            weights = tuple(rng.randrange(r) if r > 1 else 0 for _ in range(3))
            q = QuotientType(r, weights)
            canon = normalize_type(q)
            assert normalize_type(canon) == canon
            u = rng.choice([u for u in range(1, r + 1) if gcd(u, r) == 1])
            perm = list(weights)
            rng.shuffle(perm)
            scaled = tuple((u * w) % r for w in perm)
            assert normalize_type(QuotientType(r, scaled)) == canon

        # classifier invariance under unimodular (y,z)-changes
        germs = [
            "x^2+y^2+z^2", "x^2+y^2+z^6", "x^2+y^2*z+z^4", "x^2+y^2*z+z^6",
            "x^2+y^3+z^4", "x^2+y^3+y*z^3", "x^2+y^3+z^5",
            "x^2+y^3+y*z^4+z^6", "x^2+y^4+z^4", "x^3+y^3+z^3",
        ]
        x = Poly.variable(V3, 0)
        y = Poly.variable(V3, 1)
        z = Poly.variable(V3, 2)
        base_reports = {
            text: duval.classify_germ(P.parse_poly(text, V3)) for text in germs
        }
        for case in range(210):
            text = germs[case % len(germs)]
            a, b, c, d = random_unimodular_yz(rng)
            moved = P.substitute(P.parse_poly(text, V3), [x, a * y + b * z, c * y + d * z])
            report = duval.classify_germ(moved)
            base = base_reports[text]
            assert (report.verdict, report.family, report.index) == (
                base.verdict, base.family, base.index
            )

        # Milnor-number invariance for small germs
        mu_corpus = [
            "x^2+y^2+z^2", "x^2+y^2+z^5", "x^2+y^3+z^4", "x^2+y^3+y*z^3",
            "x^2+y^2*z+z^4", "x^2+y^2*z+z^6", "x^3+y^3+z^3", "x^2+y^2+z^9",
        ]
        base_mu = {text: locdef.milnor_number(P.parse_poly(text, V3)) for text in mu_corpus}
        assert all(mu <= 10 for mu in base_mu.values())
        for case in range(210):
            text = mu_corpus[case % len(mu_corpus)]
            a, b, c, d = random_unimodular_yz(rng)
            moved = P.substitute(P.parse_poly(text, V3), [x, a * y + b * z, c * y + d * z])
            assert locdef.milnor_number(moved) == base_mu[text]

        # chart divisibility in strict transforms
        checked = 0
        while checked < 220:
            q = random_quotient_type(rng, 3)
            v = random_primitive_weights(rng, q)
            f = random_semi_invariant(rng, q, V3)
            rm = P.weight(f, v.numerators, q.r) * q.r
            for i in range(3):
                equation, _ = wblow.strict_transform(f, q, v, i)
                image = {}
                for mono, coeff in f.terms.items():
                    stretched = list(mono)
                    stretched[i] = sum(bb * e for bb, e in zip(v.numerators, mono))
                    image[tuple(stretched)] = coeff
                rebuilt = {}
                for mono, coeff in equation.terms.items():
                    stretched = list(mono)
                    stretched[i] = mono[i] * q.r + int(rm)
                    rebuilt[tuple(stretched)] = coeff
                assert rebuilt == image
            checked += 1

        # CLI determinism: byte-identical reruns across a command corpus
        commands = []
        for text in germs:
            commands.append(["duval", "--germ", text])
            commands.append(["milnor", "--germ", text])
            commands.append(["t1", "--germ", text])
        commands.append(["t1", "--germ", "x^3+y^3+z^3", "--type", "1/2(1,1,1)"])
        commands.append(["t1", "--germ", "x^2+y^2+z^3+u^2", "--type", "1/4(1,3,2,1)",
                         "--vars", "x,y,z,u"])
        for type_text in ["1/2(1,1,1)", "1/3(1,1,2)", "1/4(1,3,2,1)", "1/5(1,2,3)",
                          "1/5(1,1,4)", "1/7(1,3,4)", "1/6(1,1,5)", "1/3(1,2,2)"]:
            commands.append(["charts", "--type", type_text, "--weights", type_text])
        commands.append([
            "blowup", "--type", "1/4(1,3,2,1)", "--weights", "1/4(1,3,2,1)",
            "--divisor", "x^2+y^2+z^3+u^2",
        ])
        for k in range(1, 9):
            commands.append(["milnor", "--germ", f"x^2+y^2+z^{k + 1}"])
            commands.append(["duval", "--germ", f"x^2+y^2+z^{k + 1}"])
            commands.append(["duval", "--germ", f"x^2+y^2*z+z^{k + 2}"])
            commands.append(["duval", "--germ", f"x^2+2*x*y+y^2+y^3+z^{k + 3}"])
            commands.append(["milnor", "--germ", f"x^2+y^3+z^{k + 1}"])
            commands.append(["blowup", "--type", "1/2(1,1,1)", "--weights", "1/2(1,1,1)",
                             "--divisor", f"x^3+y^3+z^{2 * k + 1}"])
        commands.append([
            "wps", "--weights", "1,2,3,5,5", "--degree", "15",
            "--equation", "x^15+x*y^7+z^5+w1^3+w2^3",
        ])
        commands.append([
            "wps", "--weights", "1,2,3,4,7", "--degree", "16",
            "--equation", "x^16+x*(z^5+z*y^6)+y*u^2+w^4", "--vars", "x,y,z,w,u",
        ])
        commands.append([
            "wps", "--weights", "1,2,2,3,7", "--degree", "14",
            "--equation", "x^14+x^2*y1^6+w^2+y1^3*y2^4+y2^7+y1*z^4",
            "--vars", "x,y1,y2,z,w",
        ])
        commands.append([
            "wps", "--weights", "1,1,5,5,7", "--degree", "15",
            "--equation", "x^15+y^15+z^3+w^3+x*u^2",
        ])
        commands.append(["wps", "--weights", "2,3,4,5,6,7", "--degree", "12,14"])
        for k in range(3, 11):
            commands.append(["milnor", "--germ", f"x^3+y^3+z^{k}"])
        runs = 0
        for argv in commands:
            outputs = set()
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(argv)
                assert code == 0, (argv, err.getvalue())
                outputs.add(out.getvalue())
                runs += 1
            assert len(outputs) == 1, argv
        assert runs >= 200

    _verdict(6, "randomized property suites (>= 200 cases each) and CLI determinism", body)


def test_criterion_7_m2_membership():
    def body():
        f = P.parse_poly("x^2+y^3+z^4", V3)
        assert locdef.in_m2_image(f, Poly.variable(V3, 1)) is False
        assert locdef.in_m2_image(f, Poly.variable(V3, 0)) is True
        rng = random.Random(707)
        done = 0
        while done < 50:
            germ = random_poly(rng, V3, max_terms=4, max_degree=4, nonzero=True)
            germ = germ - germ.constant_term()
            if germ.is_zero():
                continue
            g = random_poly(rng, V3, max_terms=4, max_degree=6, nonzero=True)
            g = g - P.jet(g, 1)
            if g.is_zero():
                continue
            assert locdef.in_m2_image(germ, g) is True
            done += 1

    _verdict(7, "membership in the multiplicity-2 deformation subspace", body)
