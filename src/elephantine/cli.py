"""Command-line driver emitting deterministic JSON reports.

Subcommands: blowup, charts, duval, t1, milnor, wps.  Every report carries
the command, an echo of the parsed inputs, the result record, warnings, and
the toolkit version; keys are sorted and rationals rendered as exact
strings, so identical invocations produce byte-identical output.  Handlers
return the result record and the warnings, and `run` builds that envelope:
the echo holds every option of the subcommand except --input-file and
--pretty.  A wps batch file gets one envelope per line.

Exit codes: 0 on success, 2 on input errors (diagnostic on stderr), 1 on an
internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import __version__, cyclo, duval as duval_mod, locdef, poly as P, wblow, wps as wps_mod
from .cyclo import QuotientType, parse_type, render_type
from .poly import Poly


class InputError(ValueError):
    """User-facing input problem: bad flag value, parse failure, mismatch."""


_INPUT_ERRORS = (
    InputError,
    P.PolyError,
    cyclo.QuotientTypeError,
    wblow.BlowupError,
    duval_mod.DuvalError,
    locdef.LocdefError,
    wps_mod.WpsError,
)


def _frac(value: Fraction | int) -> str:
    return str(Fraction(value))


def _mono_str(mono, vars) -> str:
    return P.render(Poly(vars, {tuple(mono): Fraction(1)}))


def _split_names(raw: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not names:
        raise InputError("empty variable list")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise InputError(f"variable name {name!r} is repeated in {raw!r}")
    return names


def _germ_vars(args) -> tuple[str, ...]:
    if args.vars:
        return _split_names(args.vars)
    return ("x", "y", "z")


# parsed attributes left out of the echo of the inputs
_NOT_ECHOED = ("subcommand", "handler", "pretty", "input_file")


def _report(command: str, inputs: dict, result: dict, warnings: list[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "warnings": warnings,
        "version": __version__,
    }


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)


# -- subcommand handlers -------------------------------------------------


def _chart_records(q: QuotientType, v: wblow.WeightVector, names, f: Poly | None) -> list[dict]:
    records = []
    for chart in wblow.charts(q, v, names):
        record = {
            "variable": chart.variable,
            "order": chart.quotient.r,
            "type": render_type(chart.quotient),
            "smooth": chart.quotient.r == 1,
            "isolated_action": chart.quotient.is_isolated(),
            "map": {downstairs: upstairs for downstairs, upstairs in chart.map},
        }
        if f is not None:
            equation, _ = wblow.strict_transform(f, q, v, chart.index)
            record["equation"] = P.render(equation)
        records.append(record)
    return records


def _run_blowup(args) -> tuple[dict, list[str]]:
    q = parse_type(args.type)
    v = wblow.parse_weight_vector(args.weights)
    names = _split_names(args.vars) if args.vars else wblow.default_vars(q.arity)
    if len(names) != q.arity:
        raise InputError(f"need {q.arity} variable names, got {len(names)}")
    warnings: list[str] = []
    result: dict = {
        "type": render_type(q),
        "weights": str(v),
        "canonical_discrepancy": _frac(wblow.canonical_discrepancy(q, v)),
    }
    f = None
    divisor = getattr(args, "divisor", None)  # charts has no --divisor
    if divisor is not None:
        f = P.parse_poly(divisor, names)
        if f.is_zero():
            raise InputError("divisor polynomial must be nonzero")
        character = cyclo.semi_invariant_character(f, q)
        if character is None:
            raise InputError("divisor is not semi-invariant for the quotient action")
        dr = wblow.pair_discrepancy(q, f, v)
        result["divisor"] = P.render(f)
        result["divisor_character"] = character
        result["divisor_weight"] = _frac(dr.divisor_weight)
        result["pair_discrepancy"] = _frac(dr.pair)
        result["pair_is_integer"] = dr.pair_is_integer
        if not dr.pair_is_integer:
            warnings.append(
                "pair discrepancy is not an integer; the log divisor cannot be Cartier"
            )
    result["charts"] = _chart_records(q, v, names, f)
    return result, warnings


def _run_duval(args) -> tuple[dict, list[str]]:
    names = _germ_vars(args)
    if len(names) != 3:
        raise InputError("the classifier expects a germ in exactly 3 variables")
    f = P.parse_poly(args.germ, names)
    report = duval_mod.classify_germ(f, args.truncation)
    rec = None
    if report.recommendation is not None:
        rec = {
            "weights": list(report.recommendation.weights),
            "discrepancy": _frac(report.recommendation.discrepancy),
        }
    result = {
        "verdict": report.verdict,
        "family": report.family,
        "index": report.index,
        "label": report.label,
        "milnor_number": report.milnor,
        "recommendation": rec,
        "normalization": [
            {name: P.render(image) for name, image in zip(names, step)}
            for step in report.normalization
        ],
        "residual": P.render(report.residual) if report.residual is not None else None,
        "quadratic_coefficient": (
            _frac(report.quadratic_coefficient)
            if report.quadratic_coefficient is not None
            else None
        ),
    }
    return result, []


def _run_milnor(args) -> tuple[dict, list[str]]:
    if args.cap is not None and args.cap < 3:
        # below 3 no dimension can stabilize: every germ would read non-isolated
        raise InputError("milnor needs --cap >= 3")
    names = _germ_vars(args)
    f = P.parse_poly(args.germ, names)
    mu = locdef.milnor_number(f, args.cap)
    tau = locdef.tjurina_number(f, args.cap) if mu is not None else None
    result = {
        "milnor_number": mu,
        "tjurina_number": tau,
        "isolated": mu is not None,
    }
    return result, []


def _run_t1(args) -> tuple[dict, list[str]]:
    names = _germ_vars(args)
    f = P.parse_poly(args.germ, names)
    q = parse_type(args.type) if args.type else cyclo.smooth_type(len(names))
    if q.arity != len(names):
        raise InputError("quotient type arity does not match the variable count")
    report = locdef.t1_eigenpart(f, q, args.truncation, args.ideal)
    table: dict[int, list[str]] = {}
    for mono in report.quotient.basis:
        table.setdefault(cyclo.monomial_character(mono, q), []).append(_mono_str(mono, names))
    result = {
        "type": render_type(q),
        "ideal": args.ideal,
        "truncation": report.quotient.truncation,
        "character": report.character,
        "dimension": report.dimension,
        "basis": [_mono_str(m, names) for m in report.basis],
        "quotient_dimension": report.quotient.dimension,
        "character_table": [
            {"character": c, "dimension": len(ms), "monomials": ms}
            for c, ms in sorted(table.items())
        ],
    }
    return result, []


def _wps_surface(
    weights_raw: str, degree_raw: str, equation_raw: str | None, vars_raw: str | None
) -> tuple[dict, list[str]]:
    try:
        weights = tuple(int(part) for part in weights_raw.split(","))
    except ValueError as exc:
        raise InputError(f"bad weight list {weights_raw!r}") from exc
    try:
        degrees = tuple(int(part) for part in degree_raw.split(","))
    except ValueError as exc:
        raise InputError(f"bad degree list {degree_raw!r}") from exc
    if any(w < 1 for w in weights) or any(d < 1 for d in degrees):
        raise InputError("weights and degrees must be positive")

    amp, basis = wps_mod.anticanonical_data(weights, degrees)
    result: dict = {
        "weights": list(weights),
        "degrees": list(degrees),
        "wellformed": wps_mod.wellformed(weights),
        "anticanonical_degree": amp,
        "h0": len(basis),
    }
    warnings: list[str] = []

    if len(degrees) > 1 or equation_raw is None:
        if equation_raw is not None:
            warnings.append("equation ignored: singularity analysis supports hypersurfaces only")
        else:
            warnings.append("no equation given: anticanonical data only")
        names = _split_names(vars_raw) if vars_raw else wblow.default_vars(len(weights))
        if len(names) != len(weights):
            raise InputError(f"need {len(weights)} variable names, got {len(names)}")
        result["sections"] = [_mono_str(m, names) for m in basis]
        return result, warnings

    if vars_raw:
        names = _split_names(vars_raw)
    else:
        names = tuple(P.identifiers_in(equation_raw))
    if len(names) != len(weights):
        raise InputError(
            f"need {len(weights)} variables for the equation, got {len(names)}; "
            "pass --vars explicitly in weight order"
        )
    equation = P.parse_poly(equation_raw, names)
    surface = wps_mod.WpsHypersurface(weights=weights, degree=degrees[0], equation=equation)
    analysis = wps_mod.analyze(surface)
    result["equation"] = P.render(equation)
    result["sections"] = [_mono_str(m, names) for m in analysis.sections]
    result["vertices"] = [_vertex_record(v) for v in analysis.vertices]
    result["strata"] = [_stratum_record(s) for s in analysis.strata]
    result["inventory"] = [asdict(entry) for entry in analysis.inventory]
    result["elephant"] = _elephant_record(analysis.elephant)
    result["scope"] = (
        "coordinate points and 1-dimensional coordinate strata only; "
        "deeper strata are not searched"
    )
    return result, warnings


def _vertex_record(v: wps_mod.VertexReport) -> dict:
    record = {
        "variable": v.variable,
        "weight": v.weight,
        "on_hypersurface": v.on_hypersurface,
    }
    if v.on_hypersurface:
        record["quasi_smooth"] = v.quasi_smooth
        if v.quasi_smooth:
            record["eliminated"] = v.eliminated
            record["type"] = render_type(v.quotient)
            record["normalized_type"] = render_type(v.normalized)
        else:
            record["local_model"] = {
                "variables": list(v.local_model.variables),
                "equation": P.render(v.local_model.equation),
                "action": render_type(v.local_model.action),
            }
    return record


def _stratum_record(s: wps_mod.StratumReport) -> dict:
    record = {
        "variables": list(s.variables),
        "stabilizer": s.stabilizer,
        "contained_in_hypersurface": s.contained,
        "entirely_singular": s.entirely_singular,
        "quotient_curve": s.quotient_curve,
        "vertex_flags": list(s.vertex_flags),
        "points": [],
    }
    for batch in s.batches:
        entry = {
            "count": batch.count,
            "point_poly": batch.point_poly,
            "quasi_smooth": batch.quasi_smooth,
            "stabilizer": batch.stabilizer,
        }
        if batch.quasi_smooth:
            entry["eliminated"] = batch.eliminated
            entry["chart_variable"] = batch.chart_variable
            entry["type"] = render_type(batch.quotient)
            entry["normalized_type"] = render_type(batch.normalized)
        record["points"].append(entry)
    return record


def _elephant_record(e: wps_mod.ElephantReport) -> dict:
    record: dict = {"status": e.status}
    if e.status == "extracted":
        record["section_variable"] = e.section_variable
        record["equation"] = P.render(e.equation)
        record["weights"] = list(e.weights)
    else:
        record["reason"] = e.reason
    return record


def _run_wps(args) -> tuple[dict, list[str]] | list[dict]:
    if args.input_file:
        try:
            with open(args.input_file, encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise InputError(f"cannot read {args.input_file}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {args.input_file}: not UTF-8 text ({exc.reason})") from exc
        reports = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.split("|")]
            if len(parts) not in (3, 4):
                raise InputError(
                    f"{args.input_file}:{lineno}: expected 'weights | degree | equation [| vars]'"
                )
            weights_raw, degree_raw, equation_raw = parts[0], parts[1], parts[2] or None
            vars_raw = parts[3] if len(parts) == 4 else None
            payload = _wps_surface(weights_raw, degree_raw, equation_raw, vars_raw)
            inputs = {"weights": weights_raw, "degree": degree_raw,
                      "equation": equation_raw, "vars": vars_raw}
            reports.append(_report("wps", inputs, *payload))
        return reports
    if not args.weights or not args.degree:
        raise InputError("wps needs --weights and --degree (or --input-file)")
    return _wps_surface(args.weights, args.degree, args.equation, args.vars)


# -- argument parsing ----------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="elephantine",
        description="Exact weighted blow-up, Du Val, T1, and weighted-hypersurface reports",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_pretty(p: argparse.ArgumentParser) -> None:
        # accepted after the subcommand as well; SUPPRESS keeps the
        # top-level value when the flag is absent here
        p.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)

    blowup = sub.add_parser("blowup", help="charts and discrepancies of a weighted blow-up")
    blowup.add_argument("--type", required=True, help='ambient quotient type, e.g. "1/4(1,3,2,1)"')
    blowup.add_argument("--weights", required=True, help='blow-up weights, e.g. "1/4(1,3,2,1)"')
    blowup.add_argument("--divisor", help="semi-invariant divisor polynomial")
    blowup.add_argument("--vars", help="comma-separated variable names")
    add_pretty(blowup)
    blowup.set_defaults(handler=_run_blowup)

    charts = sub.add_parser("charts", help="chart cover of a weighted blow-up")
    charts.add_argument("--type", required=True)
    charts.add_argument("--weights", required=True)
    charts.add_argument("--vars")
    add_pretty(charts)
    charts.set_defaults(handler=_run_blowup)

    duval_cmd = sub.add_parser("duval", help="classify an isolated 3-fold divisor germ")
    duval_cmd.add_argument("--germ", required=True, help="polynomial germ in 3 variables")
    duval_cmd.add_argument("--vars", help="variable names (default x,y,z)")
    duval_cmd.add_argument("--truncation", type=int)
    add_pretty(duval_cmd)
    duval_cmd.set_defaults(handler=_run_duval)

    milnor = sub.add_parser("milnor", help="Milnor/Tjurina numbers of a germ")
    milnor.add_argument("--germ", required=True)
    milnor.add_argument("--vars")
    milnor.add_argument("--cap", type=int)
    add_pretty(milnor)
    milnor.set_defaults(handler=_run_milnor)

    t1 = sub.add_parser("t1", help="first-order deformation space of a divisor germ")
    t1.add_argument("--germ", required=True)
    t1.add_argument("--type", help="quotient type acting on the germ (default trivial)")
    t1.add_argument("--vars")
    t1.add_argument("--ideal", choices=("jacobian", "tjurina"), default="jacobian")
    t1.add_argument("--truncation", type=int)
    add_pretty(t1)
    t1.set_defaults(handler=_run_t1)

    wps = sub.add_parser("wps", help="weighted-projective hypersurface inventory")
    wps.add_argument("--weights", help="comma-separated ambient weights")
    wps.add_argument("--degree", help="degree, or comma list for complete intersections")
    wps.add_argument("--equation")
    wps.add_argument("--vars", help="variable names in weight order")
    wps.add_argument("--input-file", help="batch file: weights | degree | equation [| vars]")
    add_pretty(wps)
    wps.set_defaults(handler=_run_wps)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        outcome = args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"elephantine: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"elephantine: internal error: {exc}", file=sys.stderr)
        return 1
    if isinstance(outcome, list):  # a wps batch: one report per line
        reports = outcome
    else:
        inputs = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
        reports = [_report(args.subcommand, inputs, *outcome)]
    for report in reports:
        _emit(report, args.pretty)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
