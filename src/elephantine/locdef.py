"""Truncated local-algebra computations via exact linear algebra.

Everything is a statement about O/(I + m^N) for an ideal I generated by the
partials of a germ (and optionally the germ itself): the span of
{monomial * generator} truncated below degree N is row-reduced against the
monomials of degree < N, with the grlex-least monomial of each row as pivot.
The echelon runs over Z: each monomial is one int whose order is grlex and
whose sum is the product of monomials, and rows are eliminated fraction-free
on integer numerators.  Degree truncation replaces local standard bases:
exact, simple, and enough for germs with small Milnor number.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from math import comb, gcd, lcm

from . import poly as P
from .cyclo import QuotientType, monomial_character, semi_invariant_character
from .poly import Monomial, Poly

DEFAULT_TRUNCATION = 12
DEFAULT_CAP = 24
_ENV_TRUNCATION = "ELEPHANTINE_TRUNCATION"


class LocdefError(ValueError):
    """Invalid local-algebra request."""


def default_truncation() -> int:
    """Jet truncation degree, overridable via ELEPHANTINE_TRUNCATION."""
    raw = os.environ.get(_ENV_TRUNCATION)
    if raw is None:
        return DEFAULT_TRUNCATION
    try:
        value = int(raw)
    except ValueError as exc:
        raise LocdefError(f"{_ENV_TRUNCATION} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise LocdefError(f"{_ENV_TRUNCATION} must be at least 2")
    return value


def default_cap() -> int:
    return max(2 * default_truncation(), DEFAULT_CAP)


def monomials_below(nvars: int, bound: int) -> list[Monomial]:
    """All exponent tuples of total degree < bound, in graded-lex order.

    Within one degree, combinations_with_replacement yields the index
    multisets in lexicographic order, which is descending in (e_1, e_2, ...):
    graded-lex order already.
    """
    out: list[Monomial] = []
    for d in range(bound):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            expo = [0] * nvars
            for i in combo:
                expo[i] += 1
            out.append(tuple(expo))
    return out


class _Grlex:
    """Monomials of degree < N in n variables packed into ints in grlex order.

    With B = N + 1, key(m) = deg(m)*B^n - sum(e_i * B^(n-1-i)), x in the
    highest place.  Below degree N every exponent is a base-B digit, so the
    integer order is the order of poly.grlex_key.  The key is additive,
    key(a*b) = key(a) + key(b), and every monomial of degree >= N, whatever
    its exponents, has a key above top = (N-1)*B^n: its key is at least
    deg*N*B^(n-1) >= N^2*B^(n-1) > top.  Truncation is the test key <= top.
    """

    __slots__ = ("base", "place", "units", "top", "keys")

    def __init__(self, nvars: int, bound: int):
        self.base = bound + 1
        self.place = place = self.base ** nvars
        self.units = tuple(place - self.base ** (nvars - 1 - i) for i in range(nvars))
        self.top = (bound - 1) * place
        self.keys = tuple(self.key(m) for m in monomials_below(nvars, bound))

    def keys_below(self, degree: int) -> tuple[int, ...]:
        """Keys of the monomials of degree below `degree` >= 1, a prefix of keys."""
        nvars = len(self.units)
        return self.keys[:comb(degree - 1 + nvars, nvars)]

    def key(self, mono: Monomial) -> int:
        return sum(e * unit for e, unit in zip(mono, self.units))

    def monomial(self, key: int) -> Monomial:
        degree = -(-key // self.place)
        rest = degree * self.place - key
        expo = []
        for _ in self.units:
            rest, e = divmod(rest, self.base)
            expo.append(e)
        return tuple(reversed(expo))

    def row(self, f: Poly) -> dict[int, int]:
        """The terms of f below degree N as numerators over one denominator."""
        den = lcm(*(c.denominator for c in f.terms.values()))
        out = {}
        for mono, coeff in f.terms.items():
            key = self.key(mono)
            if key <= self.top:
                out[key] = coeff.numerator * (den // coeff.denominator)
        return out


@functools.lru_cache(maxsize=32)
def _grlex(nvars: int, bound: int) -> _Grlex:
    return _Grlex(nvars, bound)


class _RowSpace:
    """Sparse fraction-free row echelon over Z, pivoting on the least key.

    A row b*row - a*pivot (scaled by gcd(a, b)) keeps every coefficient an
    integer (Bareiss, Math. Comp. 22, 1968).  Each pivot row is stored
    primitive with a positive lead; the pivot keys are the leading monomials
    of the row space whatever the scaling, so the basis is the same as over Q.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce the row, which is consumed, and add it as a pivot if nonzero."""
        pivots = self.pivots
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                content = gcd(*row.values())
                if row[lead] < 0:
                    content = -content
                pivots[lead] = {k: v // content for k, v in row.items()}
                return True
            a = row[lead]
            b = pivot[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            if b != 1:
                row = {k: b * v for k, v in row.items()}
            for k, v in pivot.items():
                value = row.get(k, 0) - a * v
                if value:
                    row[k] = value
                else:
                    del row[k]
        return False


@dataclass(frozen=True)
class TruncatedQuotient:
    germ: Poly
    truncation: int
    ideal_tag: str
    dimension: int
    basis: tuple[Monomial, ...]


def _ideal_generators(f: Poly, ideal_tag: str) -> list[Poly]:
    if ideal_tag == "jacobian":
        gens = P.partials(f)
    elif ideal_tag == "tjurina":
        gens = P.partials(f) + [f]
    else:
        raise LocdefError(f"unknown ideal tag {ideal_tag!r}")
    return [g for g in gens if not g.is_zero()]


def _truncation(truncation: int | None) -> int:
    n_trunc = default_truncation() if truncation is None else truncation
    if n_trunc < 1:
        raise LocdefError("truncation degree must be >= 1")
    return n_trunc


def _ideal_rows(f: Poly, ideal_tag: str, grlex: _Grlex) -> _RowSpace:
    space = _RowSpace()
    top = grlex.top
    for gen in _ideal_generators(f, ideal_tag):
        row = grlex.row(gen)
        if not row:  # order(gen) >= N
            continue
        for shift in grlex.keys_below(grlex.base - 1 - P.order(gen)):  # N - order(gen)
            space.insert({k + shift: c for k, c in row.items() if k + shift <= top})
    return space


def quotient_dim(f: Poly, ideal_tag: str = "jacobian", truncation: int | None = None) -> TruncatedQuotient:
    """Dimension and monomial basis of O/(I + m^N) for N = truncation."""
    n_trunc = _truncation(truncation)
    grlex = _grlex(f.arity, n_trunc)
    pivots = _ideal_rows(f, ideal_tag, grlex).pivots
    # a list first: tuple() of a generator grows the tuple by resizing, and
    # such tuples pile up in CPython's per-size free lists once freed, which
    # raised the peak memory of a 25 s local-algebra run by about 2 MB
    basis = tuple([grlex.monomial(k) for k in grlex.keys if k not in pivots])
    return TruncatedQuotient(
        germ=f,
        truncation=n_trunc,
        ideal_tag=ideal_tag,
        dimension=len(basis),
        basis=basis,
    )


def _stable_dimension(f: Poly, ideal_tag: str, cap: int | None) -> int | None:
    """First plateau of dim O/(I + m^N) up to the cap, or None without one.

    Pivots are grlex-least, so the basis at N contains the basis at each
    N' <= N and dim O/(I + m^N') counts its monomials of degree < N'.  By
    Nakayama the value is stable at the first degree d >= 2 with no basis
    monomial, if d <= cap - 1.  N grows by half (4, 6, 9, 13, ...): doubling
    overshoots small Milnor numbers to an echelon dearer than all before it.
    """
    if f.constant_term() != 0:
        raise LocdefError("germ must vanish at the origin")
    limit = default_cap() if cap is None else cap
    if limit < 3:
        return None
    n_trunc = min(4, limit)
    while True:
        per_degree = [0] * n_trunc
        for mono in quotient_dim(f, ideal_tag, n_trunc).basis:
            per_degree[sum(mono)] += 1
        for d in range(2, n_trunc):
            if per_degree[d] == 0:
                return sum(per_degree[:d])
        if n_trunc == limit:
            return None
        n_trunc = min(n_trunc + n_trunc // 2, limit)


def milnor_number(f: Poly, cap: int | None = None) -> int | None:
    """Stable dimension of O/(J_f + m^N), or None when it never stabilizes.

    Each echelon of the Jacobian ideal gives dim O/(J_f + m^N') for every N'
    up to its own N; the answer is the first plateau of that sequence, where
    two consecutive values agree.  No plateau by the cap (a genuinely
    non-isolated critical point, or a cap set too small) yields None.
    """
    return _stable_dimension(f, "jacobian", cap)


def tjurina_number(f: Poly, cap: int | None = None) -> int | None:
    """Stable dimension of O/((f) + J_f + m^N), or None without stabilization."""
    return _stable_dimension(f, "tjurina", cap)


@dataclass(frozen=True)
class T1EigenReport:
    character: int
    basis: tuple[Monomial, ...]
    dimension: int
    quotient: TruncatedQuotient


def t1_eigenpart(
    f: Poly,
    q: QuotientType,
    truncation: int | None = None,
    ideal_tag: str = "jacobian",
) -> T1EigenReport:
    """Character-chi_f eigenspace of O/(J_f + m^N) for the group action.

    First-order deformations of the divisor germ (f = 0) that stay compatible
    with the quotient come from functions sharing the character of f, so the
    eigenpart is the span of the basis monomials with that character.
    """
    chi = semi_invariant_character(f, q)
    if chi is None:
        raise LocdefError("germ is not semi-invariant for the quotient type")
    quotient = quotient_dim(f, ideal_tag, truncation)
    basis = tuple([m for m in quotient.basis if monomial_character(m, q) == chi])
    return T1EigenReport(character=chi, basis=basis, dimension=len(basis), quotient=quotient)


def in_m2_image(f: Poly, g: Poly, truncation: int | None = None) -> bool:
    """Whether the class of g in O/(J_f + m^N) lies in the image of m^2.

    Modulo m^2 the truncated Jacobian ideal is spanned by the 1-jets of the
    partials, so g lies in the image exactly when its 1-jet is in their span.
    For every N >= 2 the answer is the same, and it is computed at N = 2.
    """
    n_trunc = _truncation(truncation)
    if g.arity != f.arity:
        raise LocdefError("germ and deformation arity mismatch")
    grlex = _grlex(f.arity, min(n_trunc, 2))
    space = _ideal_rows(f, "jacobian", grlex)
    return not space.insert(grlex.row(g))
