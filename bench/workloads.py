"""Seeded operation lists for the three benchmark workloads.

Each builder returns one round: a fixed list of operations.  An operation is
a call into the public API of elephantine plus a check of its result
against an oracle from oracles.py.

Two random streams make a round.  The design stream has a fixed seed: it
draws everything that sets how much work an operation is (families,
exponents, which monomials occur, coordinate changes, weights, blow-up
centres, operation order), so every seed costs about the same.  The value
stream is seeded by --seed: it draws every coefficient, the quotient types
of the t1 calls and the test functions of the m^2 calls.  Drawing
the shapes from --seed as well made ops_per_s and latency_ms_p50 move by
15-25 % from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, NamedTuple

from elephantine import cli, cyclo, duval, locdef
from elephantine.poly import Poly

import oracles as O

V3 = ("x", "y", "z")
Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Op:
    """module.name(*args), checked by check(result).

    The function is looked up when the operation runs, so the tracer's
    wrappers are seen.
    """

    kind: str
    module: Any
    name: str
    args: tuple
    check: Callable[[Any], bool]

    def call(self) -> Any:
        return getattr(self.module, self.name)(*self.args)


class CliResult(NamedTuple):
    code: int
    text: str


def _coeff(rng: random.Random, high: int = 3) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, high))


def _with_values(rng: random.Random, monomials) -> O.Terms:
    return {m: _coeff(rng) for m in monomials}


def _monomials(nvars: int, degree: int) -> list[Monomial]:
    return [
        tuple(combo.count(i) for i in range(nvars))
        for combo in itertools.combinations_with_replacement(range(nvars), degree)
    ]


def _upper_monomials(
    design: random.Random, weights: tuple[Fraction, ...], count: int, max_degree: int
) -> list[Monomial]:
    """count monomials of weighted degree above 1 and total degree <= max_degree."""
    scale = lcm(*(w.denominator for w in weights))
    integral = [int(w * scale) for w in weights]
    candidates = [
        m
        for d in range(2, max_degree + 1)
        for m in _monomials(len(weights), d)
        if sum(w * e for w, e in zip(integral, m)) > scale
    ]
    return design.sample(candidates, count)


def _pure_powers(exponents: tuple[int, ...]) -> list[Monomial]:
    n = len(exponents)
    return [tuple(a if k == i else 0 for k in range(n)) for i, a in enumerate(exponents)]


# -- germ-classify -------------------------------------------------------

# (kind, parameter): Du Val families with their index; "J211" is x^2 plus a
# binary form of order >= 4 (the (2,1,1) blow-up), "J321" is x^2 + y^3 + z^b
# (the (3,2,1) blow-up), "ORD" is a Brieskorn-Pham germ of order >= 3.
# A_n stops at n = 11: at the default truncation 12 the classifier reports
# A_12 and beyond as non-isolated (see README).
_SPARSE_GERMS = (
    [("A", n) for n in range(1, 12)] * 3
    + [("D", n) for n in range(4, 12)] * 2
    + [("E", 6), ("E", 7), ("E", 8)] * 4
    + [("J211", (a, b)) for a, b in ((4, 4), (4, 5), (5, 5), (4, 6), (5, 6), (6, 6))] * 2
    + [("J321", b) for b in (6, 7, 8, 9)] * 3
    + [("ORD", e) for e in ((3, 3, 3), (3, 4, 5), (4, 4, 4), (3, 3, 4), (4, 5, 5), (3, 5, 5))] * 2
)
_DENSE_GERMS = [("D", 5), ("E", 8), ("J321", 6)]
_UPPER_TERMS = 2
_UPPER_DEGREE = 8


def _germ_principal(kind: str, param) -> tuple[list[Monomial], tuple[Fraction, ...], dict]:
    """Principal monomials, their weights and the expected classifier answer."""
    if kind in ("A", "D", "E"):
        weights = O.du_val_weights(kind, param)
        mu = O.milnor_orlik(weights)
        expected = {"verdict": duval.DU_VAL, "family": kind, "index": mu, "milnor": mu,
                    "recommendation": None}
        return list(O.du_val_normal_form(kind, param)), weights, expected
    if kind == "J211":
        exponents = (2,) + param
        rec = ((2, 1, 1), Fraction(-1))
    elif kind == "J321":
        exponents = (2, 3, param)
        rec = ((3, 2, 1), Fraction(-1))
    elif kind == "ORD":
        exponents = param
        rec = ((1, 1, 1), Fraction(2 - min(param)))
    else:
        raise ValueError(kind)
    expected = {"verdict": duval.NOT_DU_VAL, "family": None, "index": None, "milnor": None,
                "recommendation": rec}
    return _pure_powers(exponents), O.brieskorn_weights(exponents), expected


def _sparse_change(design: random.Random) -> list[list[int]]:
    """x -> x + a y + b z, y -> y + c z with a, b, c in {0, +-1, +-2}."""
    a, b, c = (design.choice([-2, -1, 0, 0, 1, 2]) for _ in range(3))
    return [[1, a, b], [0, 1, c], [0, 0, 1]]


def _dense_change(design: random.Random) -> list[list[int]]:
    """L * U with unipotent triangular factors whose off-diagonal entries are +-1."""
    s = [design.choice([-1, 1]) for _ in range(6)]
    lower = [[1, 0, 0], [s[0], 1, 0], [s[1], s[2], 1]]
    upper = [[1, s[3], s[4]], [0, 1, s[5]], [0, 0, 1]]
    return [[sum(lower[i][k] * upper[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _check_germ(expected: dict) -> Callable[[Any], bool]:
    def check(report) -> bool:
        rec = report.recommendation
        got_rec = None if rec is None else (tuple(rec.weights), rec.discrepancy)
        return (
            report.verdict == expected["verdict"]
            and report.family == expected["family"]
            and report.index == expected["index"]
            and report.milnor == expected["milnor"]
            and got_rec == expected["recommendation"]
        )

    return check


def germ_classify(design: random.Random, value: random.Random) -> list[Op]:
    plan = [(k, p, False) for k, p in _SPARSE_GERMS] + [(k, p, True) for k, p in _DENSE_GERMS]
    design.shuffle(plan)
    ops = []
    for kind, param, dense in plan:
        principal, weights, expected = _germ_principal(kind, param)
        upper = _upper_monomials(design, weights, _UPPER_TERMS, _UPPER_DEGREE)
        terms = _with_values(value, principal + upper)
        matrix = _dense_change(design) if dense else _sparse_change(design)
        germ = Poly(V3, O.linear_change(terms, matrix))
        label = f"{'dense' if dense else 'sparse'}-{kind}"
        ops.append(Op(label, duval, "classify_germ", (germ,), _check_germ(expected)))
    return ops


# -- local-algebra -------------------------------------------------------

# Brieskorn-Pham exponents for milnor_number and tjurina_number.  Every
# exponent sum stays <= 28: above it the default cap 24 is too small and
# milnor_number reports an isolated germ as non-isolated (see README).
_BP_SHAPES = [(2, 3, 5), (3, 4, 5), (2, 4, 6), (3, 3, 7), (2, 5, 7), (4, 5, 6), (3, 4, 6), (2, 3, 9)]
# Ten milnor_number calls of one heavier shape rank just below the three
# non-isolated germs, so the 90th percentile of a round falls among equal
# costs: with distinct shapes there, it moved by 25 % from seed to seed.
_PLATEAU_SHAPE = (2, 3, 13)
_PLATEAU_CALLS = 10
# Brieskorn-Pham plus two terms of weighted degree above 1
_SQH_SHAPES = [(2, 3, 7), (3, 4, 6), (3, 5, 5), (2, 4, 9), (4, 4, 5), (2, 5, 8)]
# critical along the z-axis, so the stabilization loop runs to the cap
_NON_ISOLATED = [
    ("milnor", [(2, 0, 0), (0, 2, 0)]),
    ("tjurina", [(2, 0, 0), (0, 2, 1)]),
    ("milnor", [(1, 1, 1)]),
]
_T1_SHAPES = [(2, 3, 4), (3, 3, 4), (3, 4, 5), (2, 4, 6), (3, 3, 3), (2, 5, 5), (4, 4, 4),
              (3, 4, 4), (2, 3, 6), (3, 5, 6)]
_M2_SHAPES = [(2, 3, 4), (2, 2, 5), (2, 4, 5), (3, 3, 4), (2, 3, 3), (2, 2, 3), (3, 4, 5),
              (2, 5, 6), (2, 2, 2), (3, 3, 3)]
_TRUNCATIONS = (6, 8, 10, 12)


def _shuffled(design: random.Random, shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(design.sample(shape, len(shape)))


def _semi_invariant_type(value: random.Random, exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """A group order r and weights making x^a + y^b + z^c semi-invariant.

    Each x_i^a_i gets the same character chi = a_i * w_i mod r.
    """
    while True:
        r = value.randint(2, 7)
        chi = value.randrange(r)
        choices = [[w for w in range(r) if (a * w) % r == chi] for a in exponents]
        if all(choices):
            return r, tuple(value.choice(ws) for ws in choices)


def _stable_number_op(kind: str, germ: Poly, expected: int | None) -> Op:
    name = "milnor_number" if kind == "milnor" else "tjurina_number"
    return Op(kind, locdef, name, (germ,), lambda got: got == expected)


def _t1_op(design: random.Random, value: random.Random, shape, truncation: int) -> Op:
    exps = _shuffled(design, shape)
    germ = Poly(V3, _with_values(value, _pure_powers(exps)))
    r, weights = _semi_invariant_type(value, exps)
    basis = O.brieskorn_t1_basis(exps, weights, r, truncation)
    chi = (exps[0] * weights[0]) % r
    q = cyclo.QuotientType(r, weights)
    return Op(
        "t1", locdef, "t1_eigenpart", (germ, q, truncation),
        lambda rep: rep.character == chi and set(rep.basis) == basis and rep.dimension == len(basis),
    )


def _m2_op(design: random.Random, value: random.Random, shape, truncation: int) -> Op:
    f_terms = _with_values(value, _pure_powers(_shuffled(design, shape)))
    units = _monomials(3, 1)
    g_terms: O.Terms = {}
    if value.random() < 0.5:
        # a combination of the partials' linear parts: in the image
        for row in O.partial_linear_parts(f_terms, 3):
            c = _coeff(value)
            for mono, v in zip(units, row):
                O.add_terms(g_terms, mono, c * v)
    else:
        O.add_terms(g_terms, value.choice(units), _coeff(value))
    for mono in value.sample(_monomials(3, 2) + _monomials(3, 3), 3):
        O.add_terms(g_terms, mono, _coeff(value))
    expected = O.in_m2_image(f_terms, g_terms, 3)
    f, g = Poly(V3, f_terms), Poly(V3, g_terms)
    return Op("m2", locdef, "in_m2_image", (f, g, truncation), lambda got: got is expected)


def local_algebra(design: random.Random, value: random.Random) -> list[Op]:
    ops: list[Op] = []
    for shape in _BP_SHAPES:
        exps = _shuffled(design, shape)
        germ = Poly(V3, _with_values(value, _pure_powers(exps)))
        mu = O.milnor_orlik(O.brieskorn_weights(exps))
        # quasi-homogeneous, so tau = mu (K. Saito)
        ops.append(_stable_number_op("milnor", germ, mu))
        ops.append(_stable_number_op("tjurina", germ, mu))
    exps = _shuffled(design, _PLATEAU_SHAPE)
    for _ in range(_PLATEAU_CALLS):
        germ = Poly(V3, _with_values(value, _pure_powers(exps)))
        ops.append(_stable_number_op("milnor", germ, O.milnor_orlik(O.brieskorn_weights(exps))))
    for shape in _SQH_SHAPES:
        exps = _shuffled(design, shape)
        weights = O.brieskorn_weights(exps)
        upper = _upper_monomials(design, weights, 2, sum(exps) // 2)
        germ = Poly(V3, _with_values(value, _pure_powers(exps) + upper))
        ops.append(_stable_number_op("milnor", germ, O.milnor_orlik(weights)))
    for name, (principal, modulus, _) in O.EXCEPTIONAL_UNIMODAL.items():
        germ = Poly(V3, _with_values(value, list(principal) + [modulus]))
        mu, tau = O.exceptional_numbers(name)
        ops.append(_stable_number_op("milnor", germ, mu))
        ops.append(_stable_number_op("tjurina", germ, tau))
    for kind, monomials in _NON_ISOLATED:
        terms = _with_values(value, monomials)
        if not O.singular_along_z_axis(terms):
            raise ValueError("non-isolated input is not critical along the z-axis")
        ops.append(_stable_number_op(kind, Poly(V3, terms), None))
    for t, shape in enumerate(_T1_SHAPES * 2):
        ops.append(_t1_op(design, value, shape, _TRUNCATIONS[t % len(_TRUNCATIONS)]))
    for t, shape in enumerate(_M2_SHAPES * 2):
        ops.append(_m2_op(design, value, shape, _TRUNCATIONS[t % len(_TRUNCATIONS)]))
    design.shuffle(ops)
    return ops


# -- cli-inventory -------------------------------------------------------

_THIS = sys.modules[__name__]
_WPS_NAMES = ("x", "y", "z", "t", "w")
_WPS_SURFACES = 100
_KAWAMATA_POINTS = 25


def _fano_monomials(design: random.Random) -> tuple[tuple[int, ...], int, list[Monomial]]:
    """Weights w, degree d = sum(w) - 1 and the monomials of an equation with,
    for every coordinate, a pure power or an x_i^a x_j term."""
    while True:
        weights = tuple(sorted(design.randint(1, 9) for _ in range(5)))
        degree = sum(weights) - 1
        needed: list[Monomial] = []
        for i, w in enumerate(weights):
            if degree % w == 0:
                needed.append(tuple(degree // w if k == i else 0 for k in range(5)))
                continue
            partners = [j for j in range(5) if j != i and (degree - weights[j]) % w == 0]
            if not partners:
                break
            j = design.choice(partners)
            mono = [0] * 5
            mono[i] = (degree - weights[j]) // w
            mono[j] = 1
            needed.append(tuple(mono))
        else:
            extra = [m for m in _weighted_monomials(weights, degree) if m not in needed]
            return weights, degree, needed + design.sample(extra, min(3, len(extra)))


def _weighted_monomials(weights: tuple[int, ...], degree: int) -> list[Monomial]:
    if len(weights) == 1:
        return [(degree // weights[0],)] if degree % weights[0] == 0 else []
    return [
        (e,) + rest
        for e in range(degree // weights[0] + 1)
        for rest in _weighted_monomials(weights[1:], degree - e * weights[0])
    ]


def run_cli(argv: list[str]) -> CliResult:
    """cli.run with stdout captured, as one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return CliResult(code, out.getvalue())


def _check_wps(weights, degree, terms) -> Callable[[Any], bool]:
    amp = O.anticanonical_degree(weights, degree)
    vertices = [O.vertex_expectation(terms, weights, i) for i in range(len(weights))]

    def check(result: CliResult) -> bool:
        if result.code != 0:
            return False
        report = json.loads(result.text)["result"]
        if (
            report["anticanonical_degree"] != amp
            or report["h0"] != O.count_monomials(weights, amp)
            or report["wellformed"] != O.wellformed(weights)
            or len(report["vertices"]) != len(weights)
        ):
            return False
        for got, want in zip(report["vertices"], vertices):
            if got["on_hypersurface"] != want["on_hypersurface"]:
                return False
            if want["on_hypersurface"] and (
                got["quasi_smooth"] != want["quasi_smooth"]
                or got.get("eliminated") != _WPS_NAMES[want["eliminated_index"]]
                or got.get("type") != want["type"]
            ):
                return False
        return True

    return check


def _check_blowup(r: int, numerators: tuple[int, ...], divisor: O.Terms | None) -> Callable[[Any], bool]:
    def check(result: CliResult) -> bool:
        if result.code != 0:
            return False
        report = json.loads(result.text)["result"]
        if Fraction(report["canonical_discrepancy"]) != O.kawamata_discrepancy(r):
            return False
        if [chart["order"] for chart in report["charts"]] != list(numerators):
            return False
        if divisor is None:
            return "pair_discrepancy" not in report
        pair = O.kawamata_discrepancy(r) - O.weighted_order(divisor, numerators, r)
        return Fraction(report["pair_discrepancy"]) == pair

    return check


def _semi_invariant_monomials(design: random.Random, r: int, weights: tuple[int, ...]) -> list[Monomial]:
    monos = [m for d in range(1, 7) for m in _monomials(3, d)]
    same: list[Monomial] = []
    while not same:
        chi = design.randrange(r)
        same = [m for m in monos if sum(a * e for a, e in zip(weights, m)) % r == chi]
    return design.sample(same, min(len(same), design.randint(2, 4)))


def cli_inventory(design: random.Random, value: random.Random) -> list[Op]:
    ops: list[Op] = []
    names = ",".join(_WPS_NAMES)
    for _ in range(_WPS_SURFACES):
        weights, degree, monomials = _fano_monomials(design)
        terms = _with_values(value, monomials)
        argv = ["wps", "--weights", ",".join(map(str, weights)), "--degree", str(degree),
                "--equation", O.render(terms, _WPS_NAMES), "--vars", names]
        ops.append(Op("wps", _THIS, "run_cli", (argv,), _check_wps(weights, degree, terms)))
    for _ in range(_KAWAMATA_POINTS):
        r = design.randint(2, 13)
        a = design.choice([k for k in range(1, r) if gcd(k, r) == 1])
        numerators = (a, r - a, 1)
        text = f"1/{r}({a},{r - a},1)"
        divisor = _with_values(value, _semi_invariant_monomials(design, r, numerators))
        argv = ["blowup", "--type", text, "--weights", text, "--divisor", O.render(divisor, V3)]
        ops.append(Op("blowup", _THIS, "run_cli", (argv,), _check_blowup(r, numerators, divisor)))
        argv = ["charts", "--type", text, "--weights", text]
        ops.append(Op("charts", _THIS, "run_cli", (argv,), _check_blowup(r, numerators, None)))
    design.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[random.Random, random.Random], list[Op]]] = {
    "germ-classify": germ_classify,
    "local-algebra": local_algebra,
    "cli-inventory": cli_inventory,
}


def build(name: str, seed: int) -> list[Op]:
    """One round of the named workload: shapes from a fixed design seed,
    values from `seed`."""
    return WORKLOADS[name](random.Random(f"{name}:design"), random.Random(f"{name}:{seed}"))
