import random
import re
import string
from fractions import Fraction

import pytest

from elephantine import poly as P
from elephantine.poly import INFINITY, Poly, PolyParseError

from _support import random_poly

V2 = ("y", "z")
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "u")


def test_parse_local_equation():
    f = P.parse_poly("x^2+y^2+z^3+u^2", V4)
    assert len(f.terms) == 4
    assert f.coefficient((2, 0, 0, 0)) == 1
    assert f.coefficient((0, 0, 3, 0)) == 1


def test_parse_zero():
    assert P.parse_poly("0", V3).is_zero()


def test_parse_binomial_cube_matches_repeated_multiplication():
    # oracle: expand (y+z)^3 by plain repeated multiplication
    y_plus_z = Poly.variable(V2, 0) + Poly.variable(V2, 1)
    expected = Poly.constant(V2, 1)
    for _ in range(3):
        expected = expected * y_plus_z
    parsed = P.parse_poly("(y+z)^3", V2)
    assert parsed == expected
    for mono, coeff in {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}.items():
        assert parsed.coefficient(mono) == coeff


def test_parse_accepts_juxtaposition_and_rationals():
    assert P.parse_poly("2x", ("x",)) == P.parse_poly("2*x", ("x",))
    assert P.parse_poly("1/2 x y", ("x", "y")) == Fraction(1, 2) * P.parse_poly("x*y", ("x", "y"))
    assert P.parse_poly("x - x", ("x",)).is_zero()
    assert P.parse_poly("-x+y", ("x", "y")) == P.parse_poly("y-x", ("x", "y"))


def test_parse_reports_position_on_syntax_error():
    with pytest.raises(PolyParseError) as err:
        P.parse_poly("x^2+*y", V3)
    assert "position" in str(err.value)


# (text, message, position) over x, y, z, as reported before the parser
# was rebuilt on one token pattern
MALFORMED = [
    ("", "expected a number, variable, or '('", 0),
    ("   ", "expected a number, variable, or '('", 3),
    ("x^", "expected a number", 2),
    ("x ^\t", "expected a number", 4),
    ("x^y", "expected a number", 2),
    ("2 ^ -1", "expected a number", 4),
    ("4x^3y^", "expected a number", 6),
    ("1/", "expected a number", 2),
    ("1/x", "expected a number", 2),
    ("1/0", "zero denominator", 3),
    ("3/00 + x", "zero denominator", 4),
    ("(x+y", "expected ')'", 4),
    ("(x+y  ", "expected ')'", 6),
    ("x*(y", "expected ')'", 4),
    ("x* - y", "expected a number after '-'", 5),
    ("--x", "expected a number after '-'", 2),
    ("x - -", "expected a number after '-'", 5),
    ("x y w", "unknown variable 'w'", 4),
    ("x_1", "unknown variable 'x_1'", 0),
    ("x^2+*y", "expected a number, variable, or '('", 4),
    ("()", "expected a number, variable, or '('", 1),
    ("*x", "expected a number, variable, or '('", 0),
    ("x^2^3", "trailing input", 3),
    ("x/2", "trailing input", 1),
    ("1/2/3", "trailing input", 3),
    ("(x))", "trailing input", 3),
    ("x $ y", "trailing input", 2),
]


def test_parse_errors_keep_message_and_position():
    for text, message, position in MALFORMED:
        with pytest.raises(PolyParseError) as err:
            P.parse_poly(text, V3)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position, text


def test_parse_returns_a_poly_or_raises_a_parse_error():
    # '²' and '½' pass str.isdigit() or str.isnumeric() but are no decimal
    # digits; '٣' is one (Arabic-Indic three)
    alphabet = string.ascii_letters + string.digits + "+-*/^()" + " \t\n" + "²½٣"
    rng = random.Random(61)
    texts = ["x^²", "²", "2²", "x+½", "½x", "٣x^٣", "1/٣"]
    while len(texts) < 3000:
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if not re.search(r"\^\s*\d\d", text):  # no power is too dear to expand
            texts.append(text)
    for text in texts:
        try:
            assert isinstance(P.parse_poly(text, V3), Poly)
        except PolyParseError:
            pass


NAMES = ("x", "y2", "_t", "zz_1", "α")


def grammar_text(rng, depth=0):
    """A random text of the polynomial grammar; factors never run together."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            shape = rng.random()
            if shape < 0.5:
                base = rng.choice(NAMES)
            elif shape < 0.8 or depth == 2:
                base = str(rng.randint(0, 20))
                if rng.random() < 0.3:
                    base += f"/{rng.randint(1, 9)}"
            else:
                base = f"({grammar_text(rng, depth + 1)})"
            if rng.random() < 0.3:
                base += f"^{rng.randint(0, 3)}"
            factors.append(base)
        terms.append(rng.choice(["*", " * ", " "]).join(factors))
    text = rng.choice(["", "-", "+ "]) + terms[0]
    for term in terms[1:]:
        text += rng.choice(["+", " - ", "-"]) + term
    return text


def test_identifiers_in_names_every_variable_the_parser_reads():
    rng = random.Random(67)
    for _ in range(400):
        text = grammar_text(rng)
        names = P.identifiers_in(text)
        if not names:
            continue  # a constant: parse_poly needs a context of its own
        assert set(names) <= set(NAMES), text
        assert isinstance(P.parse_poly(text, names), Poly), text


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolyParseError) as err:
        P.parse_poly("x+q", V3)
    assert "q" in str(err.value)


def test_order():
    assert P.order(P.parse_poly("x^2+y^3", V3)) == 2
    assert P.order(P.parse_poly("x^2+y^2+z^3+u^2", V4)) == 2
    assert P.order(Poly.zero(V3)) is INFINITY


def test_jet():
    f = P.parse_poly("y^3+z^5+y*z^4", V2)
    assert P.jet(f, 4) == P.parse_poly("y^3", V2)
    assert P.jet(f, 0).is_zero()
    g = P.parse_poly("5+x^2+x*y^3", ("x", "y"))
    assert P.jet(g, 0) == Poly.constant(("x", "y"), 5)
    # oracle: keep exactly the terms of degree <= 3
    expected = Poly(("x", "y"), {m: c for m, c in g.terms.items() if sum(m) <= 3})
    assert P.jet(g, 3) == expected == P.parse_poly("5+x^2", ("x", "y"))


def test_partials_power_rule():
    f = P.parse_poly("x^2+y^3+z^4", V3)
    assert [P.render(p) for p in P.partials(f)] == ["2*x", "3*y^2", "4*z^3"]
    g = P.parse_poly("x^3+y^3+z^3", V3)
    assert [P.render(p) for p in P.partials(g)] == ["3*x^2", "3*y^2", "3*z^2"]
    assert all(p.is_zero() for p in P.partials(Poly.constant(V3, 7)))


def test_weight_examples():
    f = P.parse_poly("x^2+y^2+z^3+u^2", V4)
    # min of {2/4, 6/4, 6/4, 2/4} by direct enumeration
    values = [Fraction(sum(b * e for b, e in zip((1, 3, 2, 1), m)), 4) for m in f.terms]
    assert min(values) == Fraction(1, 2)
    assert P.weight(f, (1, 3, 2, 1), 4) == Fraction(1, 2)
    assert P.weight(P.parse_poly("y^3+y*z^4", V3), (3, 2, 1)) == 6
    assert P.weight(Poly.zero(V3), (1, 1, 1)) is INFINITY


def test_weight_single_monomial_formula():
    rng = random.Random(11)
    for _ in range(50):
        r = rng.randint(2, 9)
        a = rng.randint(1, r - 1)
        i, j, k = (rng.randint(0, 5) for _ in range(3))
        mono = Poly(V3, {(i, j, k): Fraction(1)})
        assert P.weight(mono, (1, a, r - a), r) == Fraction(i + a * j + (r - a) * k, r)


def test_substitute_direct():
    f = P.parse_poly("x^2+y^2", ("x", "y"))
    images = [P.parse_poly("x*y", ("x", "y")), P.parse_poly("y", ("x", "y"))]
    assert P.substitute(f, images) == P.parse_poly("x^2*y^2+y^2", ("x", "y"))


def test_assign_and_restrict_support():
    f = P.parse_poly("x^2+x*y+z^3", V3)
    assert P.assign(f, {0: 0}) == P.parse_poly("z^3", V2)
    assert P.assign(f, {0: 1}) == P.parse_poly("1+y+z^3", V2)


def test_render_round_trip_random():
    rng = random.Random(23)
    for _ in range(250):
        f = random_poly(rng, V3, max_terms=7, max_degree=8)
        assert P.parse_poly(P.render(f), V3) == f


def test_render_is_deterministic_and_canonical():
    f = P.parse_poly("y+x^2+u^2+y*z^3", V4)
    g = P.parse_poly("u^2+y*z^3+y+x^2", V4)
    assert P.render(f) == P.render(g)


def test_order_additive_on_products():
    rng = random.Random(31)
    for _ in range(250):
        f = random_poly(rng, V3, nonzero=True)
        g = random_poly(rng, V3, nonzero=True)
        assert P.order(f * g) == P.order(f) + P.order(g)


def test_weight_additive_and_subadditive():
    rng = random.Random(37)
    for _ in range(250):
        f = random_poly(rng, V3, nonzero=True)
        g = random_poly(rng, V3, nonzero=True)
        nums = tuple(rng.randint(1, 6) for _ in range(3))
        r = rng.randint(1, 4)
        assert P.weight(f * g, nums, r) == P.weight(f, nums, r) + P.weight(g, nums, r)
        s = f + g
        if not s.is_zero():
            assert P.weight(s, nums, r) >= min(P.weight(f, nums, r), P.weight(g, nums, r))


def test_jet_of_jet():
    rng = random.Random(41)
    for _ in range(100):
        f = random_poly(rng, V3, max_terms=8, max_degree=9)
        k, m = rng.randint(0, 9), rng.randint(0, 9)
        assert P.jet(P.jet(f, k), m) == P.jet(f, min(k, m))


def test_partials_satisfy_leibniz_on_products():
    rng = random.Random(43)
    for _ in range(100):
        f = random_poly(rng, V3)
        g = random_poly(rng, V3)
        fg = f * g
        for df, dg, dfg in zip(P.partials(f), P.partials(g), P.partials(fg)):
            assert dfg == df * g + f * dg


def test_equality_is_positional():
    f = Poly(("x", "y"), {(1, 0): Fraction(1)})
    g = Poly(("a", "b"), {(1, 0): Fraction(1)})
    assert f == g
    assert hash(f) == hash(g)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(47)
    for _ in range(40):
        f = random_poly(rng, V2, max_terms=3, max_degree=3)
        k = rng.randint(0, 4)
        expected = Poly.constant(V2, 1)
        for _ in range(k):
            expected = expected * f
        assert f ** k == expected


# -- the integer product kernel -----------------------------------------
#
# Oracles written here with plain Fraction arithmetic: the full product of
# every pair of terms, and substitution as a sum of such products, each
# truncated only at the end.

CONTEXTS = [("x",), ("x", "y"), V3]


def reference_product(a, b):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return Poly(a.vars, out)


def reference_substitute(f, images):
    total = Poly.zero(images[0].vars)
    for mono, coeff in f.terms.items():
        term = Poly.constant(images[0].vars, coeff)
        for image, e in zip(images, mono):
            for _ in range(e):
                term = reference_product(term, image)
        total = total + term
    return total


def reference_jet(f, cap):
    if cap is None:
        return f
    return Poly(f.vars, {m: c for m, c in f.terms.items() if sum(m) <= cap})


def kernel_factor(rng, vars):
    """A random factor: zero, one term, or up to six terms over denominators <= 7."""
    shape = rng.random()
    if shape < 0.1:
        return Poly.zero(vars)
    max_terms = 1 if shape < 0.3 else 6
    return random_poly(rng, vars, max_terms=max_terms, max_degree=5, nonzero=True,
                       max_denominator=7)


def test_mul_matches_reference_product():
    rng = random.Random(53)
    for _ in range(400):
        vars = rng.choice(CONTEXTS)
        a, b = kernel_factor(rng, vars), kernel_factor(rng, vars)
        assert P.mul(a, b) == a * b == reference_product(a, b)


def test_substitute_with_cap_matches_truncated_reference():
    rng = random.Random(59)
    for _ in range(150):
        source, target = rng.choice(CONTEXTS), rng.choice(CONTEXTS)
        f = random_poly(rng, source, max_terms=5, max_degree=4, max_denominator=7)
        images = [kernel_factor(rng, target) for _ in source]
        if rng.random() < 0.2:
            images[rng.randrange(len(images))] = Poly.zero(target)
        full = P.substitute(f, images)
        assert full == reference_substitute(f, images)
        cap = rng.randint(0, 12)
        assert P.substitute(f, images, cap) == P.jet(full, cap) == reference_jet(full, cap)


def test_truncation_degree_must_be_non_negative():
    f = P.parse_poly("x+y", ("x", "y"))
    with pytest.raises(P.PolyError):
        P.substitute(f, [f, f], cap=-1)


@pytest.mark.parametrize("vars", [V2, V3, V4])
def test_split_square_verifies_by_substitution(vars):
    # seeded order-2 germs, a third of them with products only in their
    # quadratic part; the recorded steps applied by substitute give c*x^2 + g
    rng = random.Random(163 + len(vars))
    n = len(vars)
    identity = tuple(Poly.variable(vars, t) for t in range(n))
    swaps = crosses = 0
    for number in range(24):
        quad = {}
        while not quad:
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2) if number % 3 == 0 else rng.choices(range(n), k=2)
                mono = tuple((t == i) + (t == j) for t in range(n))
                quad[mono] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        f = Poly(vars, quad) + random_poly(rng, vars, max_terms=4, max_degree=6)
        f = f - P.jet(f, 1)
        if P.order(f) != 2:
            continue
        for cap in (2, 3, 7):
            steps = []
            g, c = P.split_square(f, cap, steps)
            assert P.split_square(f, cap) == (g, c)
            assert g.vars == vars[1:] and c != 0
            transformed = P.jet(f, cap)
            for images in steps:
                transformed = P.substitute(transformed, list(images), cap=cap)
            embedded = Poly(vars, {(0, *m): coeff for m, coeff in g.terms.items()})
            assert transformed == Poly(vars, {(2,) + (0,) * (n - 1): c}) + embedded, P.render(f)
            swaps += any(images != identity and set(images) == set(identity) for images in steps)
            crosses += any(images[t] - identity[t] in identity for images in steps for t in range(n))
    assert swaps and crosses
