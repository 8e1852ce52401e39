"""Truncated local-algebra computations via exact linear algebra.

Everything is a statement about O/(I + m^N) for an ideal I generated by the
partials of a germ (and optionally the germ itself): the span of
{monomial * generator} truncated below degree N is row-reduced against the
monomials of degree < N, with the grlex-least monomial of each row as pivot.
The echelon runs over Z: each monomial is one int in the key layout that
poly._Grlex owns, whose order is grlex and whose sum is the product of
monomials, and rows are eliminated fraction-free on integer numerators.
Degree truncation replaces local standard bases: exact, simple, and enough
for germs with small Milnor number.  Milnor and Tjurina numbers split the
squares off the germ first (poly.split_square), and run the echelon on what
is left in the other variables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, gcd

from . import poly as P
from .cyclo import QuotientType, monomial_character, semi_invariant_character
from .poly import Monomial, Poly

DEFAULT_TRUNCATION = 12
DEFAULT_CAP = 24
# the default stabilization limit rises to bezout_bound(f) + 1 up to here;
# B grows like (deg f - 1)^n, so above it dense germs keep the default cap
BEZOUT_CAP_CEILING = 32


class LocdefError(ValueError):
    """Invalid local-algebra request."""


def monomials_below(nvars: int, bound: int) -> list[Monomial]:
    """All exponent tuples of total degree < bound, in grlex order: unit weights, by degree."""
    ones = (1,) * nvars
    return [m for d in range(bound) for m in P.monomials_of_weighted_degree(ones, d)]


@functools.lru_cache(maxsize=32)
def _grlex(nvars: int, bound: int) -> tuple[P._Grlex, tuple[int, ...]]:
    """The poly._Grlex layout below degree `bound`, and its keys of monomials_below.

    The keys ascend, and those below degree d >= 1 are the first
    comb(d - 1 + nvars, nvars).
    """
    grlex = P._Grlex(nvars, bound - 1)
    return grlex, tuple(map(grlex.key, monomials_below(nvars, bound)))


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
    n_trunc = DEFAULT_TRUNCATION if truncation is None else truncation
    if n_trunc < 1:
        raise LocdefError("truncation degree must be >= 1")
    return n_trunc


def _ideal_rows(f: Poly, ideal_tag: str, n_trunc: int) -> _RowSpace:
    """The echelon of the rows m * g_i truncated below N, g_i the generators.

    F5's criterion (Faugere, ISSAC 2002) skips the row m * g_i when m is a
    pivot of the rows of g_1 ... g_(i-1): some h in their span leads with m,
    and m * g_i = h * g_i - (h - m) * g_i.  Truncated below degree N, h * g_i
    lies in the span of the rows of g_1 ... g_(i-1), and (h - m) * g_i in
    that of the rows t * g_i with t after m.  By induction on i, then on m
    from the last monomial down, every skipped row lies in the span of the
    inserted ones, so the span, its pivots and every basis are unchanged.
    """
    grlex, keys = _grlex(f.arity, n_trunc)
    space = _RowSpace()
    limit = grlex.limit
    for gen in _ideal_generators(f, ideal_tag):
        row, _ = grlex.pack(gen)
        if not row:  # order(gen) >= N
            continue
        earlier = set(space.pivots)
        # the shifts are the monomials of degree < N - order(gen)
        for shift in keys[:comb(n_trunc - 1 - P.order(gen) + f.arity, f.arity)]:
            if shift not in earlier:
                space.insert({k + shift: c for k, c in row.items() if k + shift < limit})
    return space


def quotient_dim(f: Poly, ideal_tag: str = "jacobian", truncation: int | None = None) -> TruncatedQuotient:
    """Dimension and monomial basis of O/(I + m^N) for N = truncation."""
    n_trunc = _truncation(truncation)
    grlex, keys = _grlex(f.arity, n_trunc)
    pivots = _ideal_rows(f, ideal_tag, n_trunc).pivots
    # a list first: tuple() of a generator grows the tuple by resizing, and
    # such tuples pile up in CPython's per-size free lists once freed, which
    # raised the peak memory of a 25 s local-algebra run by about 2 MB
    basis = tuple(grlex.monomials([k for k in keys if k not in pivots]))
    return TruncatedQuotient(
        germ=f,
        truncation=n_trunc,
        ideal_tag=ideal_tag,
        dimension=len(basis),
        basis=basis,
    )


def bezout_bound(f: Poly) -> int:
    """B = prod deg(d_i f), a bound on the Milnor number of an isolated point.

    At an isolated critical point mu <= B (refined Bezout, Fulton,
    Intersection Theory, Thm 12.3: mu is the intersection multiplicity of
    the partials there, O/J being Cohen-Macaulay), and every truncated
    dimension of the Jacobian or Tjurina ideal is at most mu.  A zero
    partial gives B = 0: f then misses a variable, so it is non-isolated
    unless it is smooth, with mu = 0.  Over Q no two terms of d_i f cancel,
    so deg(d_i f) + 1 is the largest degree of a term of f involving x_i.
    """
    bound = 1
    for i in range(f.arity):
        degree = max((sum(m) for m in f.terms if m[i]), default=0)
        if not degree:
            return 0
        bound *= degree - 1
    return bound


def _corank_residual(f: Poly, n_trunc: int) -> Poly:
    """The germ g_N left after splitting off squares at truncation N.

    While the germ has order 2 and more than one variable, poly.split_square
    takes off one square: f o phi = c * x_1^2 + g_N modulo m^(N + 1).
    """
    while f.arity > 1 and P.order(f) == 2:
        f, _ = P.split_square(f, n_trunc)
    return f


def _stable_dimension(f: Poly, ideal_tag: str, cap: int | None) -> int | None:
    """First plateau of dim O/(I + m^N) up to the limit, or None without one.

    Pivots are grlex-least, so the basis at N contains the basis at each
    N' <= N and dim O/(I + m^N') counts its monomials of degree < N'.  By
    Nakayama the value is stable at the first degree d >= 2 with no basis
    monomial, if d <= limit - 1.

    B = bezout_bound(f) and the limit are fixed before the first echelon.
    The limit is the cap, or by default DEFAULT_CAP, raised to B + 1 when
    that is at most BEZOUT_CAP_CEILING: at N = B + 1 the plateau of an
    isolated germ always shows.  Past an echelon without a plateau, B
    settles the rest.  An isolated f has every truncated dimension <= B, so
    dim > B proves it non-isolated and returns None at once.  Otherwise each
    degree from N up to the plateau degree holds a basis monomial, so the
    plateau lies below N + B - dim + 1, and N steps to the least of that,
    N + N//2 (doubling overshoots small Milnor numbers to an echelon dearer
    than all before it) and the limit.

    Each echelon runs on the corank residual g_N of f in n - r variables, r
    the number of squares split off at the echelon's own N (the splitting
    lemma).  With phi the recorded change of coordinates, f o phi = c *
    x_1^2 + g_N + h with h in m^(N + 1).  By the chain rule J(f o phi) =
    phi*(J_f), and phi* preserves every m^M, so the dimensions of f and of
    f o phi agree.  The partials of h lie in m^N, so for M <= N
    J(f o phi) + m^M = (x_1) + J_g + m^M, and with f o phi = g_N modulo x_1
    and m^(N + 1) the Tjurina ideals agree the same way.  Every truncated
    dimension and every basis count per degree that the loop reads is the
    same in fewer variables.  B, the vanishing check, the limit and the
    ladder of N stay on f.
    """
    if f.constant_term() != 0:
        raise LocdefError("germ must vanish at the origin")
    bound = bezout_bound(f)
    limit = DEFAULT_CAP if cap is None else cap
    if cap is None and limit < bound + 1 <= BEZOUT_CAP_CEILING:
        limit = bound + 1
    if limit < 3:
        return None
    n_trunc = min(4, limit)
    while True:
        per_degree = [0] * n_trunc
        for mono in quotient_dim(_corank_residual(f, n_trunc), ideal_tag, n_trunc).basis:
            per_degree[sum(mono)] += 1
        for d in range(2, n_trunc):
            if per_degree[d] == 0:
                return sum(per_degree[:d])
        dim = sum(per_degree)
        if dim > bound or n_trunc == limit:
            return None
        n_trunc = min(n_trunc + n_trunc // 2, n_trunc + bound - dim + 1, limit)


def milnor_number(f: Poly, cap: int | None = None) -> int | None:
    """Stable dimension of O/(J_f + m^N), or None when it never stabilizes.

    Each echelon of the Jacobian ideal gives dim O/(J_f + m^N') for every N'
    up to its own N; the answer is the first plateau of that sequence, where
    two consecutive values agree.  None means either a proof that the
    critical point is not isolated (a dimension above bezout_bound(f)) or no
    plateau below the limit: an explicit cap set too small, or a default
    limit below B + 1 because B + 1 > BEZOUT_CAP_CEILING.  The echelons run
    in the corank variables only: mu(c * x^2 + g) = mu(g), so a germ with a
    nondegenerate quadratic part of rank r costs an echelon in n - r
    variables.
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
    bound = min(n_trunc, 2)
    grlex, _ = _grlex(f.arity, bound)
    return not _ideal_rows(f, "jacobian", bound).insert(grlex.pack(g)[0])
