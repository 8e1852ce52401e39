"""Cyclic quotient singularity models 1/r(a_1, ..., a_n).

A type is the group order r together with the tuple of action weights,
reduced mod r.  r = 1 encodes a smooth germ, so chart bookkeeping flows
through the same code paths as genuine quotients.  Weight tuples containing
0 mod r are accepted (they show up in blow-up charts) but describe
non-isolated fixed loci.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .poly import Monomial, Poly


class QuotientTypeError(ValueError):
    """Malformed quotient type or arity mismatch."""


@dataclass(frozen=True)
class QuotientType:
    """The germ C^n / Z_r acting by x_i -> zeta_r^{a_i} x_i."""

    r: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise QuotientTypeError("group order must be >= 1")
        object.__setattr__(self, "weights", tuple(a % self.r for a in self.weights))

    @property
    def arity(self) -> int:
        return len(self.weights)

    def is_isolated(self) -> bool:
        """True when the action is free away from the origin."""
        return all(gcd(a, self.r) == 1 for a in self.weights)

    def __str__(self) -> str:
        return render_type(self)


_TYPE_RE = re.compile(r"^\s*1\s*/\s*(\d+)\s*\(([^)]*)\)\s*$")


def parse_type(text: str) -> QuotientType:
    """Parse the textual syntax \"1/r(a1,a2,...)\"."""
    match = _TYPE_RE.match(text)
    if not match:
        raise QuotientTypeError(f"cannot parse quotient type {text!r}; expected 1/r(a1,a2,...)")
    r = int(match.group(1))
    body = match.group(2).strip()
    if not body:
        raise QuotientTypeError("quotient type needs at least one weight")
    try:
        weights = tuple(int(part) for part in body.split(","))
    except ValueError as exc:
        raise QuotientTypeError(f"bad weight list in {text!r}") from exc
    return QuotientType(r, weights)


def render_type(q: QuotientType) -> str:
    return f"1/{q.r}({','.join(str(a) for a in q.weights)})"


def smooth_type(arity: int) -> QuotientType:
    return QuotientType(1, (0,) * arity)


def monomial_character(m: Monomial, q: QuotientType) -> int:
    """Eigenweight sum(a_i * e_i) mod r of a monomial under the action."""
    if len(m) != q.arity:
        raise QuotientTypeError(f"monomial arity {len(m)} does not match type arity {q.arity}")
    return sum(a * e for a, e in zip(q.weights, m)) % q.r


def semi_invariant_character(f: Poly, q: QuotientType) -> int | None:
    """Common character of all terms, or None if f is not semi-invariant.

    The zero polynomial is vacuously invariant with character 0.
    """
    if f.arity != q.arity:
        raise QuotientTypeError("polynomial arity does not match type arity")
    chars = {monomial_character(m, q) for m in f.terms}
    if not chars:
        return 0
    if len(chars) > 1:
        return None
    return chars.pop()


def units_mod(r: int) -> list[int]:
    return [u for u in range(1, r + 1) if gcd(u, r) == 1]


def normalize_type(q: QuotientType) -> QuotientType:
    """Canonical representative under unit multiples and weight permutations.

    The canonical form is the lexicographically least ascending-sorted tuple
    over all unit multiples mod r; deterministic output for golden tests.
    """
    best = None
    for u in units_mod(q.r):
        candidate = tuple(sorted((u * a) % q.r for a in q.weights))
        if best is None or candidate < best:
            best = candidate
    return QuotientType(q.r, best)


def is_terminal_3fold(q: QuotientType) -> bool:
    """Whether q is terminal, by the terminal lemma (Reid 1987).

    1/r(a_1, a_2, a_3) is terminal exactly when every a_i is a unit mod r
    and two of them sum to 0 mod r: q is 1/r(1, a, r-a) up to a unit
    multiple and the order of the weights.
    """
    if q.arity != 3:
        raise QuotientTypeError("terminality test needs exactly 3 weights")
    a1, a2, a3 = q.weights
    return q.is_isolated() and 0 in ((a1 + a2) % q.r, (a1 + a3) % q.r, (a2 + a3) % q.r)
