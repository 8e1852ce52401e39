"""Truncated local-algebra computations via exact linear algebra.

Everything is a statement about O/(I + m^N) for an ideal I generated by the
partials of a germ (and optionally the germ itself): the span of
{monomial * generator} truncated below degree N is row-reduced against the
monomials of degree < N, with the lowest monomial of each row as pivot.
Degree truncation replaces local standard bases: exact, simple, and enough
for germs with small Milnor number.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from . import poly as P
from .cyclo import QuotientType, monomial_character, semi_invariant_character
from .poly import Monomial, Poly, grlex_key

DEFAULT_TRUNCATION = 12
DEFAULT_CAP = 24
_ENV_TRUNCATION = "ELEPHANTINE_TRUNCATION"


def default_truncation() -> int:
    """Jet truncation degree, overridable via ELEPHANTINE_TRUNCATION."""
    raw = os.environ.get(_ENV_TRUNCATION)
    if raw is None:
        return DEFAULT_TRUNCATION
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_TRUNCATION} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{_ENV_TRUNCATION} must be at least 2")
    return value


def default_cap() -> int:
    return max(2 * default_truncation(), DEFAULT_CAP)


class LocdefError(ValueError):
    """Invalid local-algebra request."""


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


class _RowSpace:
    """Sparse row echelon over Q, pivoting on the grlex-least monomial."""

    def __init__(self):
        self.pivots: dict[Monomial, dict[Monomial, Fraction]] = {}

    def _reduce(self, row: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        while row:
            lead = min(row, key=grlex_key)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            factor = row[lead]
            for mono, coeff in pivot.items():
                value = row.get(mono, Fraction(0)) - factor * coeff
                if value:
                    row[mono] = value
                else:
                    row.pop(mono, None)
        return row

    def insert(self, row: dict[Monomial, Fraction]) -> bool:
        row = self._reduce(dict(row))
        if not row:
            return False
        lead = min(row, key=grlex_key)
        inv = Fraction(1) / row[lead]
        self.pivots[lead] = {m: c * inv for m, c in row.items()}
        return True


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


def _ideal_rows(f: Poly, ideal_tag: str, bound: int) -> _RowSpace:
    space = _RowSpace()
    n = f.arity
    for gen in _ideal_generators(f, ideal_tag):
        base_order = P.order(gen)
        for mono in monomials_below(n, bound - base_order):
            row = {}
            for gm, gc in gen.terms.items():
                key = P.monomial_mul(mono, gm)
                if sum(key) < bound:
                    row[key] = row.get(key, Fraction(0)) + gc
            if row:
                space.insert(row)
    return space


def quotient_dim(f: Poly, ideal_tag: str = "jacobian", truncation: int | None = None) -> TruncatedQuotient:
    """Dimension and monomial basis of O/(I + m^N) for N = truncation."""
    n_trunc = default_truncation() if truncation is None else truncation
    if n_trunc < 1:
        raise LocdefError("truncation degree must be >= 1")
    space = _ideal_rows(f, ideal_tag, n_trunc)
    basis = tuple(
        m for m in monomials_below(f.arity, n_trunc) if m not in space.pivots
    )
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
    basis = tuple(m for m in quotient.basis if monomial_character(m, q) == chi)
    return T1EigenReport(character=chi, basis=basis, dimension=len(basis), quotient=quotient)


def in_m2_image(f: Poly, g: Poly, truncation: int | None = None) -> bool:
    """Whether the class of g in O/(J_f + m^N) lies in the image of m^2.

    Modulo m^2 the truncated Jacobian ideal is spanned by the 1-jets of the
    partials, so g lies in the image exactly when its 1-jet is in their span.
    For every N >= 2 the answer is the same, and it is computed at N = 2.
    """
    n_trunc = default_truncation() if truncation is None else truncation
    if g.arity != f.arity:
        raise LocdefError("germ and deformation arity mismatch")
    bound = min(n_trunc, 2)
    space = _ideal_rows(f, "jacobian", bound)
    # insert reduces a copy of the row and adds a pivot only if one is left
    return not space.insert(P.jet(g, bound - 1).terms)
