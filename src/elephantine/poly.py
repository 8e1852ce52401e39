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
from math import lcm, prod
from typing import Mapping, Sequence

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
        return cls(vars, {(0,) * len(tuple(vars)): Fraction(value)})

    @classmethod
    def variable(cls, vars: Sequence[str], index: int) -> "Poly":
        vs = tuple(vars)
        expo = [0] * len(vs)
        expo[index] = 1
        return cls(vs, {tuple(expo): Fraction(1)})

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
# substitute works on an integer form: a list of (key, numerator) pairs
# sorted by key, over one common denominator kept beside it.  A key packs a
# monomial into one int: its exponents are the low base-B digits and its
# total degree the leading digit, where B exceeds every degree that can
# occur (the cap, when one is set).  So adding two keys multiplies the
# monomials, keys sort by degree first, and a key sum is below
# (cap + 1) * B^arity exactly when the product has degree <= cap.  One
# bisection per left-hand term then bounds the right-hand terms it meets,
# and no pair above the cap is ever multiplied.  _Packing, _product and
# _sorted_form serve substitute alone; mul multiplies term by term.

Form = list[tuple[int, int]]


class _Packing:
    """Key layout for monomials of total degree <= top, truncated at cap."""

    __slots__ = ("arity", "base", "places", "lead", "cap", "limit")

    def __init__(self, arity: int, top: int, cap: int | None):
        if cap is not None and cap >= top:
            cap = None  # no product reaches the cap: nothing to truncate
        self.arity = arity
        self.base = (top if cap is None else cap) + 1
        self.places = [self.base ** i for i in range(arity)]
        self.lead = self.base ** arity
        self.cap = cap
        self.limit = None if cap is None else (cap + 1) * self.lead

    def pack(self, f: Poly) -> tuple[Form, int]:
        """Integer form of f without its terms above the cap, and its denominator."""
        cap, places, lead = self.cap, self.places, self.lead
        terms = [
            (m, c) for m, c in f.terms.items() if cap is None or monomial_degree(m) <= cap
        ]
        den = lcm(*(c.denominator for _, c in terms))
        return sorted(
            (sum(map(operator.mul, m, places)) + monomial_degree(m) * lead,
             c.numerator * (den // c.denominator))
            for m, c in terms
        ), den

    def unpack(self, acc: dict[int, int], den: int, vars: tuple[str, ...]) -> Poly:
        """The polynomial sum(v * monomial(key)) / den over the given context."""
        base, arity = self.base, self.arity
        terms: dict[Monomial, Fraction] = {}
        for key, v in acc.items():
            if v:
                mono = []
                for _ in range(arity):
                    key, e = divmod(key, base)
                    mono.append(e)
                terms[tuple(mono)] = Fraction(v, den)
        return Poly._raw(vars, terms)


def _product(a: Form, b: Form, limit: int | None,
             out: dict[int, int] | None = None, scale: int = 1) -> dict[int, int]:
    """Add scale * a * b into out, skipping every pair whose key sum reaches limit."""
    if len(a) > len(b):
        a, b = b, a
    if out is None:
        out = {}
    get = out.get
    b_keys = [k for k, _ in b] if limit is not None else None
    for ka, ca in a:
        if b_keys is None:
            reach = b
        else:
            stop = bisect_left(b_keys, limit - ka)
            if not stop:
                break  # a is sorted: later terms reach no further
            reach = b[:stop]
        ca *= scale
        for kb, cb in reach:
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

    # every term formed on the way, the images' own included, has degree <= top
    image_degrees = [0 if g.is_zero() else degree(g) for g in images]
    top = max([*image_degrees, *(sum(map(operator.mul, m, image_degrees)) for m in f.terms)])
    code = _Packing(len(target), top, cap)
    limit = code.limit
    one: Form = [(0, 1)]

    # integer forms of the images, and their capped powers
    packed = [code.pack(g) for g in images]
    powers: list[list[Form]] = [[one, form] for form, _ in packed]

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


def assign(f: Poly, values: Mapping[int, int | Fraction]) -> Poly:
    """Set the given variable positions to constants and drop them.

    The result lives in the context of the remaining variables (which must
    be non-empty).
    """
    keep = [i for i in range(f.arity) if i not in values]
    if not keep:
        raise PolyError("cannot assign every variable")
    new_vars = tuple(f.vars[i] for i in keep)
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in f.terms.items():
        c = coeff
        dead = False
        for i, val in values.items():
            e = mono[i]
            if e:
                v = Fraction(val)
                if v == 0:
                    dead = True
                    break
                c *= v ** e
        if dead:
            continue
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

# a token's kind is "nat", "ident" or the character itself
_TOKEN = re.compile(r"(?P<nat>\d+)|(?P<ident>[^\W\d]\w*)|\S")


class _Parser:
    def __init__(self, text: str, vars: Sequence[str]):
        # (kind, text, position) per token, and an end marker of kind ""
        self.tokens = [(m.lastgroup or m.group(), m.group(), m.start())
                       for m in _TOKEN.finditer(text)]
        self.tokens.append(("", "", len(text)))
        self.at = 0
        self.vars = tuple(vars)
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

    def parse_expr(self) -> Poly:
        terms: dict[Monomial, Fraction] = {}
        sign = 1
        if not self.take("+") and self.take("-"):
            sign = -1
        while True:
            for mono, coeff in self.parse_term().terms.items():
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
                return Poly._raw(self.vars, terms)

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while self.take("*") or self.kind() in ("nat", "ident", "("):
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Poly:
        base = self.parse_base()
        if self.take("^"):
            return base ** self.nat()
        return base

    def parse_base(self) -> Poly:
        if self.take("("):
            inner = self.parse_expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return inner
        kind, name, position = self.tokens[self.at]
        if kind == "ident":
            if name not in self.index:
                raise PolyParseError(f"unknown variable {name!r}", position)
            self.at += 1
            return Poly.variable(self.vars, self.index[name])
        sign = 1
        if self.take("-"):
            sign = -1
            if self.kind() != "nat":
                raise self.error("expected a number after '-'")
        elif kind != "nat":
            raise self.error("expected a number, variable, or '('")
        num = self.nat()
        if self.take("/"):
            _, digits, position = self.tokens[self.at]
            den = self.nat()
            if den == 0:
                raise PolyParseError("zero denominator", position + len(digits))
            return Poly.constant(self.vars, Fraction(sign * num, den))
        return Poly.constant(self.vars, sign * num)


def parse_poly(text: str, vars: Sequence[str]) -> Poly:
    """Parse polynomial text over the given variables into canonical form."""
    parser = _Parser(text, vars)
    result = parser.parse_expr()
    if parser.kind():
        raise parser.error("trailing input")
    return result


def identifiers_in(text: str) -> list[str]:
    """Identifiers in order of first appearance (for CLI variable inference)."""
    return list(dict.fromkeys(
        m.group() for m in _TOKEN.finditer(text) if m.lastgroup == "ident"
    ))
