"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients, together with an ordered tuple of variable names.  Names are
display metadata only: arithmetic and equality are positional, so chart
substitutions may permute or reuse names freely.  All coefficients are
arbitrary-precision rationals; nothing here ever touches a float.

The zero polynomial has empty support; its order and weight are the
distinguished INFINITY value rather than an error.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

Monomial = tuple[int, ...]


class Infinity:
    """Order/weight of the zero polynomial: compares above every number."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash(("elephantine", "infinity"))

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"


INFINITY = Infinity()


class PolyError(ValueError):
    """Invalid polynomial input or operation."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, not bad input."""


class PolyParseError(PolyError):
    """Syntax or vocabulary error while parsing polynomial text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def grlex_key(m: Monomial):
    """Graded lexicographic sort key in the ambient variable order."""
    return (sum(m), tuple(-e for e in m))


def monomials_of_weighted_degree(weights: Sequence[int], target: int) -> list[Monomial]:
    """All exponent tuples with sum(w_i e_i) = target, in graded-lex order.

    Each exponent runs down from its largest value, so the tuples come in
    descending lex order, which a stable sort by total degree makes grlex.
    """
    if not weights or min(weights) < 1:
        raise PolyError(f"need one or more positive weights, got {tuple(weights)}")
    partial = [((), target)] if target >= 0 else []  # (prefix, weighted degree left)
    for w in weights[:-1]:
        partial = [(prefix + (e,), left - e * w)
                   for prefix, left in partial for e in range(left // w, -1, -1)]
    w = weights[-1]
    return sorted([prefix + (left // w,) for prefix, left in partial if left % w == 0], key=sum)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Monomial, Fraction] | None = None):
        vs = tuple(vars)
        if not vs:
            raise PolyError("polynomial context needs at least one variable")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            n = len(vs)
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                mono = tuple(mono)
                if len(mono) != n:
                    raise PolyError(f"exponent tuple {mono} does not match arity {n}")
                if any(e < 0 for e in mono):
                    raise PolyError(f"negative exponent in {mono}")
                clean[mono] = clean.get(mono, Fraction(0)) + c
                if clean[mono] == 0:
                    del clean[mono]
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "Poly":
        # internal fast path: exponent tuples already valid, only strip zeros
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", vars)
        object.__setattr__(obj, "terms", {m: c for m, c in terms.items() if c})
        return obj

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Sequence[str], value) -> "Poly":
        vs = tuple(vars)
        if not vs:
            raise PolyError("polynomial context needs at least one variable")
        return cls._raw(vs, {(0,) * len(vs): Fraction(value)})

    @classmethod
    def variable(cls, vars: Sequence[str], index: int) -> "Poly":
        vs = tuple(vars)
        if not 0 <= index < len(vs):
            raise PolyError(f"variable index must lie in 0..{len(vs) - 1}, got {index}")
        expo = [0] * len(vs)
        expo[index] = 1
        return cls._raw(vs, {tuple(expo): Fraction(1)})

    # -- basic structure ----------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.arity, Fraction(0))

    def __eq__(self, other) -> bool:
        # positional equality: names are metadata
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({render(self)!r})"

    # -- arithmetic ---------------------------------------------------

    def _check_arity(self, other: "Poly") -> None:
        if other.arity != self.arity:
            raise PolyError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.vars, other)
        self._check_arity(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Poly._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Poly._raw(self.vars, {m: c * v for m, v in self.terms.items()})
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative power of a polynomial")
        result = Poly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


# -- operations --------------------------------------------------------


def order(f: Poly):
    """Minimum total degree of a term, INFINITY for the zero polynomial."""
    if not f.terms:
        return INFINITY
    return min(monomial_degree(m) for m in f.terms)


def degree(f: Poly):
    """Maximum total degree of a term, INFINITY (vacuous) for zero."""
    if not f.terms:
        return INFINITY
    return max(monomial_degree(m) for m in f.terms)


def jet(f: Poly, k: int) -> Poly:
    """Sum of the terms of total degree at most k."""
    if k < 0:
        raise PolyError("jet degree must be non-negative")
    return Poly._raw(f.vars, {m: c for m, c in f.terms.items() if monomial_degree(m) <= k})


def partials(f: Poly) -> list[Poly]:
    """Formal partial derivatives, one per variable in variable order."""
    out = []
    for i in range(f.arity):
        terms: dict[Monomial, Fraction] = {}
        for m, c in f.terms.items():
            e = m[i]
            if e == 0:
                continue
            key = m[:i] + (e - 1,) + m[i + 1:]
            terms[key] = terms.get(key, Fraction(0)) + c * e
        out.append(Poly._raw(f.vars, terms))
    return out


def weight(f: Poly, numerators: Sequence[int], denominator: int = 1):
    """Weighted order min(sum(b_j i_j)/r) over the support; INFINITY for zero."""
    nums = tuple(numerators)
    if len(nums) != f.arity:
        raise PolyError("weight vector arity mismatch")
    if denominator <= 0:
        raise PolyError("weight denominator must be positive")
    if not f.terms:
        return INFINITY
    best = min(sum(b * e for b, e in zip(nums, m)) for m in f.terms)
    return Fraction(best, denominator)


def weighted_degrees(f: Poly, weights: Sequence[int]) -> set[int]:
    """Set of weighted degrees occurring in the support (integer weights)."""
    ws = tuple(weights)
    if len(ws) != f.arity:
        raise PolyError("weight arity mismatch")
    return {sum(w * e for w, e in zip(ws, m)) for m in f.terms}


def mul(a: Poly, b: Poly) -> Poly:
    """Exact product a * b, one term of the shorter factor at a time."""
    a._check_arity(b)
    vars = a.vars
    if len(a.terms) > len(b.terms):
        a, b = b, a
    out: dict[Monomial, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = monomial_mul(ma, mb)
            c = ca * cb
            out[m] = out[m] + c if m in out else c
    return Poly._raw(vars, out)


# -- exact truncated substitution --------------------------------------
#
# substitute, the shear kernel shears and locdef's echelon work on integer
# forms: numerators keyed by packed monomials, over one common denominator
# kept beside them.  _Grlex owns the one key layout.  For the monomials of
# total degree <= cap in n variables, with B = cap + 2,
#
#     key(m) = deg(m) * B^n - sum(e_i * B^(n-1-i)),
#
# x in the highest place.  The key is linear in the exponents, so adding two
# keys multiplies the monomials.  Up to degree cap + 1 every exponent is a
# base-B digit, so the keys of degree d fill ((d - 1) * B^n, d * B^n] and the
# integer order is the order of grlex_key.  A monomial of degree d > cap,
# whatever its exponents, has a key of at least d * (B - 1) * B^(n-1) >=
# (cap + 1)^2 * B^(n-1) > cap * B^n, so truncation at the cap is the one test
# key < limit = cap * B^n + 1.  On a form sorted by key, one bisection per
# left-hand term then bounds the right-hand terms it meets, and _product
# never multiplies a pair above the cap.  mul multiplies term by term.

Form = list[tuple[int, int]]


class _Grlex:
    """Key layout for monomials in `arity` variables of total degree <= cap."""

    __slots__ = ("base", "lead", "places", "units", "limit")

    def __init__(self, arity: int, cap: int):
        self.base = base = cap + 2
        self.lead = lead = base ** arity
        self.places = [base ** (arity - 1 - i) for i in range(arity)]  # digit of x_i
        self.units = [lead - place for place in self.places]  # key of x_i
        self.limit = cap * lead + 1

    def key(self, mono: Monomial) -> int:
        return sum(map(operator.mul, mono, self.units))

    def monomials(self, keys: Iterable[int]) -> list[Monomial]:
        """The monomials of keys of degree <= cap + 1: e_i is digit i of -key mod B^n."""
        base, lead, places = self.base, self.lead, self.places
        return [tuple([-key % lead // place % base for place in places]) for key in keys]

    def pack(self, f: Poly) -> tuple[dict[int, int], int]:
        """The terms of f of degree <= cap as numerators over one denominator, by key."""
        key, limit = self.key, self.limit
        terms = [(k, c) for m, c in f.terms.items() if (k := key(m)) < limit]
        den = lcm(*(c.denominator for _, c in terms))
        return {k: c.numerator * (den // c.denominator) for k, c in terms}, den

    def unpack(self, numerators: Mapping[int, int], den: int, vars: tuple[str, ...]) -> Poly:
        """The polynomial sum(v * monomial(key)) / den over the given context."""
        return Poly._raw(vars, {
            m: Fraction(v, den)
            for m, v in zip(self.monomials(numerators), numerators.values()) if v
        })


def _product(a: Form, b: Form, limit: int,
             out: dict[int, int] | None = None, scale: int = 1) -> dict[int, int]:
    """Add scale * a * b into out, skipping every pair whose key sum reaches limit."""
    if len(a) > len(b):
        a, b = b, a
    if out is None:
        out = {}
    get = out.get
    b_keys = [k for k, _ in b]
    for ka, ca in a:
        stop = bisect_left(b_keys, limit - ka)
        if not stop:
            break  # a is sorted: later terms reach no further
        ca *= scale
        for kb, cb in b[:stop]:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _sorted_form(acc: dict[int, int]) -> Form:
    return sorted(kv for kv in acc.items() if kv[1])


def substitute(f: Poly, images: Sequence[Poly], cap: int | None = None) -> Poly:
    """Ring-homomorphism image of f under x_i -> images[i].

    All images must live in one common variable context.  With ``cap`` set,
    the result is truncated to total degree <= cap, and no term above the cap
    is ever formed on the way, which keeps iterated shears tame.  The sum
    runs in integers over one common denominator until the end.
    """
    images = list(images)
    if len(images) != f.arity:
        raise PolyError(f"need {f.arity} images, got {len(images)}")
    target = images[0].vars
    for g in images[1:]:
        if g.arity != len(target):
            raise PolyError("images live in inconsistent contexts")
    if cap is not None and cap < 0:
        raise PolyError("truncation degree must be non-negative")

    # every term formed on the way, the images' own included, has degree <= top,
    # so without a cap (or above top) the sum truncated at top is the whole sum
    image_degrees = [0 if g.is_zero() else degree(g) for g in images]
    top = max([*image_degrees, *(sum(map(operator.mul, m, image_degrees)) for m in f.terms)])
    code = _Grlex(len(target), top if cap is None else min(cap, top))
    limit = code.limit
    one: Form = [(0, 1)]

    # integer forms of the images, and their capped powers
    packed = [code.pack(g) for g in images]
    powers: list[list[Form]] = [[one, sorted(form.items())] for form, _ in packed]

    def image_power(i: int, e: int) -> Form:
        cache = powers[i]
        while len(cache) <= e:
            cache.append(_sorted_form(_product(cache[-1], cache[1], limit)))
        return cache[e]

    # one denominator for the whole sum
    dens = [den for _, den in packed]
    monomial_dens = [
        c.denominator * prod(d ** e for d, e in zip(dens, m) if e)
        for m, c in f.terms.items()
    ]
    common = lcm(*monomial_dens)

    acc: dict[int, int] = {}
    for (mono, coeff), den in zip(f.terms.items(), monomial_dens):
        # one-term factors first, so the longest is met last and only once
        factors = sorted((image_power(i, e) for i, e in enumerate(mono) if e), key=len)
        head = one
        for g in factors[:-1]:
            head = _sorted_form(_product(head, g, limit))
        _product(head, factors[-1] if factors else one, limit, acc,
                 coeff.numerator * (common // den))
    return code.unpack(acc, common, tuple(target))


def shears(
    f: Poly, i: int, k: int, lead: Fraction, degrees: Iterable[int], cap: int,
    steps: list[tuple[Poly, ...]] | None = None,
) -> Poly:
    """Shear f against its term lead * v^k, v the variable i, once per degree.

    At each degree d in turn, s is the sum of the degree-d terms divisible by
    v^(k-1), other than v^k, divided by k * lead * v^(k-1); the substitution
    v -> v - s cancels those terms, changes none of lower degree, and is
    recorded in steps, as the images of the variables, when steps is given.
    f is packed once into the integer form F / D, truncated at cap, and
    unpacked once at the end.  With s = S * q / p in lowest terms, Taylor's
    formula gives the image F(v - s) = sum_j G_j * (-q * S)^j / p^j, where
    G_j = sum_a C(a, j) * F_a * v^(a - j) for F = sum_a F_a * v^a.  Each
    power j adds degree - k to the degree of a term, so only the G_j whose
    products stay within the cap are formed, and the image is their sum
    times p^(J - j) over D * p^J for the largest such j = J.  Dividing by
    the content keeps D the lcm of the reduced denominators, as pack builds
    it, so the result does not depend on J.
    """
    if not 0 <= i < f.arity:
        raise PolyError(f"variable index must lie in 0..{f.arity - 1}, got {i}")
    if k < 1 or lead == 0:
        raise PolyError(f"shear needs k >= 1 and a nonzero lead, got k = {k}, lead = {lead}")
    code = _Grlex(f.arity, cap)
    packed, den = code.pack(f)
    form = sorted(packed.items())
    base, unit, place, limit = code.base, code.lead, code.places[i], code.limit
    v = code.units[i]  # the key of v; adding it multiplies by v
    pure = k * v
    shift = (k - 1) * v
    for degree in degrees:
        # form is sorted by key, and the keys of degree d lie in ((d - 1) * unit, d * unit]
        targets = [
            (key - shift, c)
            for key, c in form[bisect_left(form, ((degree - 1) * unit + 1,)):
                               bisect_left(form, (degree * unit + 1,))]
            if -key % unit // place % base >= k - 1 and key != pure
        ]
        if not targets:
            continue
        t = 1 / (k * lead * den)
        q, p = t.numerator, t.denominator
        u = [(key, -q * c) for key, c in targets]  # -q * S, sorted as form is
        if steps is not None:
            images = [Poly.variable(f.vars, j) for j in range(f.arity)]
            images[i] = code.unpack({v: p, **dict(u)}, p, f.vars)
            steps.append(tuple(images))
        # the Taylor parts G_j, without the terms whose degree e + j * (degree
        # - k) in G_j * S^j is past the cap; form is sorted, and so is each G_j
        growth = degree - k
        taylor: list[Form] = []
        for key, c in form:
            a = -key % unit // place % base
            # -key // unit is minus the degree of the term
            reach = min(a, (cap + -key // unit) // growth) if growth else a
            while len(taylor) <= reach:
                taylor.append([])
            for j in range(reach + 1):
                taylor[j].append((key - j * v, comb(a, j) * c))
        top = len(taylor) - 1
        powers = [[(0, 1)], u]
        acc: dict[int, int] = {}
        for j, part in enumerate(taylor):
            while len(powers) <= j:
                powers.append(_sorted_form(_product(powers[-1], u, limit)))
            _product(part, powers[j], limit, acc, p ** (top - j))
        form = _sorted_form(acc)
        den *= p ** top
        content = gcd(den, *(c for _, c in form))
        if content > 1:
            form = [(key, c // content) for key, c in form]
            den //= content
    return code.unpack(dict(form), den, f.vars)


def split_square(
    f: Poly, cap: int, steps: list[tuple[Poly, ...]] | None = None,
) -> tuple[Poly, Fraction]:
    """Split a germ of order 2 as c * x_1^2 + g(x_2, ..., x_n) modulo degree > cap.

    Returns (g, c).  The pivot is the first square x_i^2 of the quadratic
    part or, with none, the first product x_i*x_j, which x_j -> x_j + x_i
    turns into a square.  A swap of exponents moves the pivot to x_1, and
    shears against c * x_1^2 at the degrees 2..cap remove every other term
    involving x_1 (the splitting lemma).  Applying the changes of
    coordinates, recorded in steps as the images of the variables when steps
    is given, to f and truncating gives c * x_1^2 + g exactly.  A germ in one
    variable, of order other than 2, or a cap below 2 raises PolyError.
    """
    vars = f.vars
    n = len(vars)
    if n < 2 or order(f) != 2 or cap < 2:
        raise PolyError("splitting needs a germ in 2 or more variables of order 2, and cap >= 2")
    current = jet(f, cap)
    quad = {m: c for m, c in current.terms.items() if monomial_degree(m) == 2}
    pivot = next((i for i in range(n) if _square(n, i) in quad), None)
    if pivot is None:
        # only products: x_j -> x_j + x_i adds c * x_i^2 for the first c * x_i*x_j
        mono = max(quad)  # lexicographically first (i, j), as the exponents descend
        pivot, j = (t for t, e in enumerate(mono) if e)
        images = [Poly.variable(vars, t) for t in range(n)]
        images[j] = images[j] + images[pivot]
        if steps is not None:
            steps.append(tuple(images))
        current = substitute(current, images, cap=cap)
    if pivot:
        if steps is not None:
            images = [Poly.variable(vars, t) for t in range(n)]
            images[0], images[pivot] = images[pivot], images[0]
            steps.append(tuple(images))
        current = Poly._raw(vars, {_swap(m, pivot): c for m, c in current.terms.items()})
    square = _square(n, 0)
    c = current.coefficient(square)
    if c == 0:
        raise InvariantError("linear normalization left no x^2 term")
    current = shears(current, 0, 2, c, range(2, cap + 1), cap, steps)
    if any(m[0] and m != square for m in current.terms):
        raise InvariantError("split left x-involving terms")
    residual = {m[1:]: coeff for m, coeff in current.terms.items() if m != square}
    return Poly._raw(vars[1:], residual), c


def _square(n: int, i: int) -> Monomial:
    return tuple(2 if t == i else 0 for t in range(n))


def _swap(m: Monomial, i: int) -> Monomial:
    return (m[i], *m[1:i], m[0], *m[i + 1:])


def assign(f: Poly, values: Mapping[int, int | Fraction]) -> Poly:
    """Set the given variable positions to constants and drop them.

    The result lives in the context of the remaining variables (which must
    be non-empty).
    """
    for i in values:
        if not 0 <= i < f.arity:
            raise PolyError(f"variable index must lie in 0..{f.arity - 1}, got {i}")
    keep = [i for i in range(f.arity) if i not in values]
    if not keep:
        raise PolyError("cannot assign every variable")
    new_vars = tuple(f.vars[i] for i in keep)
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in f.terms.items():
        # 0^0 = 1: a term killed by a zero value gets coefficient 0 and is dropped
        c = coeff * prod(Fraction(v) ** mono[i] for i, v in values.items())
        key = tuple(mono[i] for i in keep)
        out[key] = out.get(key, Fraction(0)) + c
    return Poly(new_vars, out)


# -- rendering ---------------------------------------------------------


def render(f: Poly) -> str:
    """Canonical text form: graded-lex descending, explicit '*' and '^'."""
    if not f.terms:
        return "0"
    parts: list[str] = []
    for mono, coeff in sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = []
        for name, e in zip(f.vars, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text


# -- parser ------------------------------------------------------------
#
# expr     := ('+'|'-')? term (('+'|'-') term)*
# term     := factor ('*'? factor)*
# factor   := base ('^' nat)?
# base     := rational | ident | '(' expr ')'
# rational := '-'? nat ('/' nat)?
#
# A nat is a run of decimal digits, an ident a run of letters, digits and
# '_' that starts with no decimal digit.  Whitespace is insignificant;
# juxtaposed factors multiply implicitly.  The sign of a rational is reachable only where a
# base is required (after '*', '+' or '-'), never via juxtaposition.
#
# An expr comes back as its terms, a dict from monomial to coefficient.  A
# term keeps one coefficient and one exponent list: a variable adds to an
# exponent, and a rational or a parenthesized expr of one term folds in.
# Only a factor of zero or of several terms is a Poly multiplied by mul.
# At most MAX_NESTING parentheses may be open at once; a deeper '(' is a
# parse error, not a trip over the interpreter's recursion limit.

MAX_NESTING = 100

# a token's kind is "nat", "ident" or the character itself
_TOKEN = re.compile(r"(?P<nat>\d+)|(?P<ident>[^\W\d]\w*)|\S")


class _Parser:
    def __init__(self, text: str, vars: Sequence[str]):
        # (kind, text, position) per token, and an end marker of kind ""
        self.tokens = [(m.lastgroup or m.group(), m.group(), m.start())
                       for m in _TOKEN.finditer(text)]
        self.tokens.append(("", "", len(text)))
        self.at = 0
        self.depth = 0
        self.vars = tuple(vars)
        if not self.vars:
            raise PolyError("polynomial context needs at least one variable")
        self.index = {name: i for i, name in enumerate(self.vars)}

    def kind(self) -> str:
        return self.tokens[self.at][0]

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.tokens[self.at][2])

    def take(self, kind: str) -> bool:
        if self.kind() == kind:
            self.at += 1
            return True
        return False

    def nat(self) -> int:
        kind, digits, position = self.tokens[self.at]
        if kind != "nat":
            raise self.error("expected a number")
        try:
            value = int(digits)
        except ValueError as exc:  # beyond sys.get_int_max_str_digits()
            raise PolyParseError(f"number of {len(digits)} digits is too long", position) from exc
        self.at += 1
        return value

    def power(self) -> int:
        return self.nat() if self.take("^") else 1

    def parse_expr(self) -> dict[Monomial, Fraction]:
        terms: dict[Monomial, Fraction] = {}
        sign = 1
        if not self.take("+") and self.take("-"):
            sign = -1
        while True:
            for mono, coeff in self.parse_term().items():
                coeff = coeff if sign > 0 else -coeff
                total = terms[mono] + coeff if mono in terms else coeff
                if total:
                    terms[mono] = total
                else:
                    del terms[mono]
            if self.take("+"):
                sign = 1
            elif self.take("-"):
                sign = -1
            else:
                return terms

    def parse_term(self) -> dict[Monomial, Fraction]:
        coeff = Fraction(1)
        expo = [0] * len(self.vars)
        product = None  # the factors of zero or several terms
        while True:
            kind, name, position = self.tokens[self.at]
            if kind == "ident":
                if name not in self.index:
                    raise PolyParseError(f"unknown variable {name!r}", position)
                self.at += 1
                expo[self.index[name]] += self.power()
            else:
                base = self.parse_base()
                k = self.power()
                if len(base) == 1:
                    [(mono, c)] = base.items()
                    coeff *= c ** k
                    for v, e in enumerate(mono):
                        expo[v] += e * k
                else:
                    factor = Poly._raw(self.vars, base) ** k
                    product = factor if product is None else product * factor
            if not (self.take("*") or self.kind() in ("nat", "ident", "(")):
                break
        mono = tuple(expo)
        if product is None:
            return {mono: coeff}
        return {monomial_mul(m, mono): coeff * c for m, c in product.terms.items()}

    def parse_base(self) -> dict[Monomial, Fraction]:
        kind, _, position = self.tokens[self.at]
        if self.take("("):
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"more than {MAX_NESTING} nested parentheses", position)
            self.depth += 1
            inner = self.parse_expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            self.depth -= 1
            return inner
        sign = 1
        if self.take("-"):
            sign = -1
            if self.kind() != "nat":
                raise self.error("expected a number after '-'")
        elif kind != "nat":
            raise self.error("expected a number, variable, or '('")
        num = self.nat()
        value = Fraction(sign * num)
        if self.take("/"):
            _, digits, position = self.tokens[self.at]
            den = self.nat()
            if den == 0:
                raise PolyParseError("zero denominator", position + len(digits))
            value /= den
        return {(0,) * len(self.vars): value} if value else {}


def parse_poly(text: str, vars: Sequence[str]) -> Poly:
    """Parse polynomial text over the given variables into canonical form."""
    parser = _Parser(text, vars)
    terms = parser.parse_expr()
    if parser.kind():
        raise parser.error("trailing input")
    return Poly._raw(parser.vars, terms)


def identifiers_in(text: str) -> list[str]:
    """Identifiers in order of first appearance (for CLI variable inference)."""
    return list(dict.fromkeys(
        m.group() for m in _TOKEN.finditer(text) if m.lastgroup == "ident"
    ))
