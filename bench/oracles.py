"""Closed-form oracles the benchmark checks every operation against.

Nothing here imports elephantine: each expected answer comes from a
formula on the data a workload was built from, never from the program.

Polynomials are plain dicts mapping exponent tuples to Fractions, with a
few helpers to build inputs (linear coordinate changes) without calling the
code under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

Terms = dict[tuple[int, ...], Fraction]

# -- dict polynomials ----------------------------------------------------


def add_terms(out: Terms, mono: tuple[int, ...], coeff: Fraction) -> None:
    value = out.get(mono, Fraction(0)) + coeff
    if value:
        out[mono] = value
    else:
        out.pop(mono, None)


def mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            add_terms(out, tuple(x + y for x, y in zip(ma, mb)), ca * cb)
    return out


def linear_change(f: Terms, matrix: list[list[int]]) -> Terms:
    """f(M x): variable i goes to sum_j matrix[i][j] * x_j."""
    n = len(matrix)
    images = [
        {tuple(int(k == j) for k in range(n)): Fraction(c) for j, c in enumerate(row) if c}
        for row in matrix
    ]
    powers = [[{(0,) * n: Fraction(1)}] for _ in range(n)]
    out: Terms = {}
    for mono, coeff in f.items():
        term: Terms = {(0,) * n: coeff}
        for i, e in enumerate(mono):
            while len(powers[i]) <= e:
                powers[i].append(mul(powers[i][-1], images[i]))
            if e:
                term = mul(term, powers[i][e])
        for m, c in term.items():
            add_terms(out, m, c)
    return out


def render(f: Terms, names: tuple[str, ...]) -> str:
    """Text the program's parser reads: terms joined by '+', '*' and '^'."""
    parts = []
    for mono, coeff in sorted(f.items(), reverse=True):
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e
        ]
        parts.append("*".join([f"({coeff})"] + factors))
    return "+".join(parts) if parts else "0"


# -- Milnor and Tjurina numbers -----------------------------------------


def milnor_orlik(weights: tuple[Fraction, ...]) -> int:
    """mu = prod(1/w_i - 1) for an isolated quasi-homogeneous germ of degree 1.

    Milnor and Orlik, Topology 9 (1970).  It holds for every germ whose
    principal part has these weights, whatever terms of weighted degree
    above 1 are added, and under any change of coordinates.
    """
    mu = prod((1 / w - 1 for w in weights), start=Fraction(1))
    if mu.denominator != 1:
        raise ValueError(f"weights {weights} give a non-integral Milnor number {mu}")
    return int(mu)


def brieskorn_weights(exponents: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Weights of x_1^a_1 + ... + x_n^a_n."""
    return tuple(Fraction(1, a) for a in exponents)


def du_val_weights(family: str, index: int) -> tuple[Fraction, ...]:
    """Weights of the normal form x^2 + g(y, z) of A_n, D_n, E_6, E_7, E_8."""
    half = Fraction(1, 2)
    if family == "A":
        return (half, half, Fraction(1, index + 1))
    if family == "D":
        # x^2 + y^2 z + z^(n-1)
        wz = Fraction(1, index - 1)
        return (half, (1 - wz) / 2, wz)
    if family == "E":
        # x^2 + y^3 + z^4 / y^3 + y z^3 / y^3 + z^5
        wz = {6: Fraction(1, 4), 7: Fraction(2, 9), 8: Fraction(1, 5)}[index]
        return (half, Fraction(1, 3), wz)
    raise ValueError(f"unknown Du Val family {family!r}")


def du_val_normal_form(family: str, index: int) -> Terms:
    one = Fraction(1)
    if family == "A":
        return {(2, 0, 0): one, (0, 2, 0): one, (0, 0, index + 1): one}
    if family == "D":
        return {(2, 0, 0): one, (0, 2, 1): one, (0, 0, index - 1): one}
    if family == "E":
        g = {6: (0, 0, 4), 7: (0, 1, 3), 8: (0, 0, 5)}[index]
        return {(2, 0, 0): one, (0, 3, 0): one, g: one}
    raise ValueError(f"unknown Du Val family {family!r}")


# Arnold's exceptional unimodal germs, normal form plus modulus term with a
# nonzero modulus.  They are semi-quasi-homogeneous with Tjurina number
# mu - 1 (K. Saito, 1971: tau = mu exactly on quasi-homogeneous germs; the
# modulus monomial spans the one missing class).  Plane curves get + z^2,
# which changes neither number.
EXCEPTIONAL_UNIMODAL: dict[str, tuple[tuple[tuple[int, int, int], ...], tuple[int, int, int], tuple[Fraction, ...]]] = {
    # name: (principal monomials, modulus monomial, weights)
    "E12": (((3, 0, 0), (0, 7, 0), (0, 0, 2)), (1, 5, 0), (Fraction(1, 3), Fraction(1, 7), Fraction(1, 2))),
    "E13": (((3, 0, 0), (1, 5, 0), (0, 0, 2)), (0, 8, 0), (Fraction(1, 3), Fraction(2, 15), Fraction(1, 2))),
    "E14": (((3, 0, 0), (0, 8, 0), (0, 0, 2)), (1, 6, 0), (Fraction(1, 3), Fraction(1, 8), Fraction(1, 2))),
    "Z11": (((3, 1, 0), (0, 5, 0), (0, 0, 2)), (1, 4, 0), (Fraction(4, 15), Fraction(1, 5), Fraction(1, 2))),
    "Z12": (((3, 1, 0), (1, 4, 0), (0, 0, 2)), (2, 3, 0), (Fraction(3, 11), Fraction(2, 11), Fraction(1, 2))),
    "Z13": (((3, 1, 0), (0, 6, 0), (0, 0, 2)), (1, 5, 0), (Fraction(5, 18), Fraction(1, 6), Fraction(1, 2))),
    "W12": (((4, 0, 0), (0, 5, 0), (0, 0, 2)), (2, 3, 0), (Fraction(1, 4), Fraction(1, 5), Fraction(1, 2))),
    "W13": (((4, 0, 0), (1, 4, 0), (0, 0, 2)), (0, 6, 0), (Fraction(1, 4), Fraction(3, 16), Fraction(1, 2))),
    "Q10": (((3, 0, 0), (0, 4, 0), (0, 1, 2)), (1, 3, 0), (Fraction(1, 3), Fraction(1, 4), Fraction(3, 8))),
    "Q11": (((3, 0, 0), (0, 2, 1), (1, 0, 3)), (0, 0, 5), (Fraction(1, 3), Fraction(7, 18), Fraction(2, 9))),
    "Q12": (((3, 0, 0), (0, 5, 0), (0, 1, 2)), (1, 4, 0), (Fraction(1, 3), Fraction(1, 5), Fraction(2, 5))),
    "S11": (((4, 0, 0), (0, 2, 1), (1, 0, 2)), (3, 0, 1), (Fraction(1, 4), Fraction(5, 16), Fraction(3, 8))),
    "S12": (((2, 1, 0), (0, 2, 1), (1, 0, 3)), (0, 0, 5), (Fraction(4, 13), Fraction(5, 13), Fraction(3, 13))),
    "U12": (((3, 0, 0), (0, 3, 0), (0, 0, 4)), (1, 1, 2), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))),
}


def exceptional_numbers(name: str) -> tuple[int, int]:
    """(mu, tau) of an exceptional unimodal germ with nonzero modulus."""
    mu = milnor_orlik(EXCEPTIONAL_UNIMODAL[name][2])
    return mu, mu - 1


def singular_along_z_axis(f: Terms) -> bool:
    """f lies in (x, y)^2, so f and its gradient vanish on the whole z-axis.

    Such a germ has a one-dimensional critical locus: it is not isolated,
    and neither its Milnor nor its Tjurina algebra is finite.
    """
    return all(m[0] + m[1] >= 2 for m in f)


# -- deformation spaces --------------------------------------------------


def brieskorn_t1_basis(
    exponents: tuple[int, ...], weights: tuple[int, ...], r: int, truncation: int
) -> set[tuple[int, ...]]:
    """Monomials of O/(J_f + m^N) with the character of f = sum c_i x_i^a_i.

    The Jacobian ideal is the monomial ideal (x_i^(a_i - 1)), so the quotient
    has the basis {x^e : e_i < a_i - 1, |e| < N}; the eigenpart keeps the
    monomials whose character sum(w_i e_i) mod r equals that of x_1^a_1.
    """
    chi = (exponents[0] * weights[0]) % r
    out = set()
    for e in itertools.product(*(range(a - 1) for a in exponents)):
        if sum(e) < truncation and sum(w * k for w, k in zip(weights, e)) % r == chi:
            out.add(e)
    return out


def partial_linear_parts(f: Terms, nvars: int) -> list[list[Fraction]]:
    """Linear coefficients of each partial derivative of f."""
    rows = []
    for i in range(nvars):
        row = [Fraction(0)] * nvars
        for mono, coeff in f.items():
            if mono[i] >= 1 and sum(mono) == 2:
                rest = list(mono)
                rest[i] -= 1
                row[rest.index(1)] += coeff * mono[i]
        rows.append(row)
    return rows


def rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][col]:
                factor = rows[i][col] / rows[rk][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def in_m2_image(f: Terms, g: Terms, nvars: int) -> bool:
    """Whether g lies in J_f + m^2, for f of order >= 2.

    Modulo m^2 the ideal J_f is spanned by the linear parts of the partials
    (each partial vanishes at the origin), so membership is a rank test on
    the 1-jet of g; the constant term must vanish.
    """
    if g.get((0,) * nvars):
        return False
    span = partial_linear_parts(f, nvars)
    linear = [Fraction(0)] * nvars
    for mono, coeff in g.items():
        if sum(mono) == 1:
            linear[mono.index(1)] = coeff
    return rank(span + [linear]) == rank(span)


# -- weighted projective hypersurfaces ------------------------------------


def anticanonical_degree(weights: tuple[int, ...], degree: int) -> int:
    return sum(weights) - degree


def count_monomials(weights: tuple[int, ...], target: int) -> int:
    """Brute-force count of monomials of weighted degree target."""
    if target < 0:
        return 0
    ranges = [range(target // w + 1) for w in weights]
    return sum(
        1 for e in itertools.product(*ranges) if sum(w * k for w, k in zip(weights, e)) == target
    )


def wellformed(weights: tuple[int, ...]) -> bool:
    """No prime divides all but one of the weights."""
    for skip in range(len(weights)):
        g = 0
        for i, w in enumerate(weights):
            if i != skip:
                g = gcd(g, w)
        if g != 1:
            return False
    return True


def vertex_expectation(terms: Terms, weights: tuple[int, ...], i: int) -> dict:
    """The coordinate point P_i on the hypersurface (sum of terms = 0).

    P_i lies off X iff a pure power of x_i occurs.  On X, a term x_i^a x_j
    makes X quasi-smooth there; eliminating x_j (least index) leaves the
    quotient type 1/w_i of the remaining weights.
    """
    n = len(weights)
    if any(all(e == 0 for k, e in enumerate(m) if k != i) for m in terms):
        return {"on_hypersurface": False}
    for j in range(n):
        if j != i and any(
            m[j] == 1 and all(e == 0 for k, e in enumerate(m) if k not in (i, j)) for m in terms
        ):
            rest = [weights[k] % weights[i] for k in range(n) if k not in (i, j)]
            return {
                "on_hypersurface": True,
                "quasi_smooth": True,
                "eliminated_index": j,
                "type": f"1/{weights[i]}({','.join(map(str, rest))})",
            }
    return {"on_hypersurface": True, "quasi_smooth": False}


# -- weighted blow-ups ---------------------------------------------------


def kawamata_discrepancy(r: int) -> Fraction:
    """Discrepancy of the Kawamata blow-up of 1/r(a, r - a, 1): exactly 1/r."""
    return Fraction(1, r)


def weighted_order(f: Terms, numerators: tuple[int, ...], r: int) -> Fraction:
    return min(Fraction(sum(b * e for b, e in zip(numerators, m)), r) for m in f)
