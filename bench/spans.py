"""In-memory span tracer that wraps elephantine's public functions.

The tracer replaces a function by a timing wrapper under every module
attribute that holds it, so calls made inside the package (which go through
module globals or `from x import f` bindings) are seen as well.  Spans are
not stored one by one: each name keeps its call count, total time and self
time (total minus the time covered by traced child spans), plus a few
counters read off arguments and results at the same boundary.
"""

from __future__ import annotations

import sys
import time
from math import comb

# module path, attribute path: every layer boundary the benchmark traces
TRACED = [
    ("elephantine.poly", "substitute"),
    ("elephantine.poly", "Poly.__mul__"),
    ("elephantine.poly", "parse_poly"),
    ("elephantine.poly", "render"),
    ("elephantine.duval", "classify_germ"),
    ("elephantine.duval", "truncated_split"),
    ("elephantine.duval", "classify_double_point"),
    ("elephantine.locdef", "quotient_dim"),
    ("elephantine.locdef", "milnor_number"),
    ("elephantine.locdef", "tjurina_number"),
    ("elephantine.locdef", "t1_eigenpart"),
    ("elephantine.locdef", "in_m2_image"),
    ("elephantine.wps", "analyze"),
    ("elephantine.wps", "vertex_report"),
    ("elephantine.wps", "stratum_report"),
    ("elephantine.wps", "anticanonical_data"),
    ("elephantine.cyclo", "normalize_type"),
    ("elephantine.wblow", "charts"),
    ("elephantine.wblow", "strict_transform"),
    ("elephantine.wblow", "pair_discrepancy"),
    ("elephantine.cli", "run"),
]

_SHORT = {"Poly.__mul__": "mul"}
_DUVAL_SPANS = {"duval.classify_germ", "duval.truncated_split", "duval.classify_double_point"}
_STABILIZING = {"locdef.milnor_number", "locdef.tjurina_number"}


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{_SHORT.get(attr, attr)}"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, child_s] per open span
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "elephantine"]
        for module_name, attr in TRACED:
            owner = sys.modules[module_name]
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(original, span_name(module_name, attr))
            for holder in [owner] + modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            observe(name, args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at the span boundaries --------------------------------

    def _bump(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, name: str, args, result, elapsed: float) -> None:
        if name == "poly.substitute":
            self._bump("poly.substitute.terms_out", len(result.terms))
        elif name == "locdef.quotient_dim":
            # monomials of degree < N in the germ's variables
            nvars = result.germ.arity
            self._bump("locdef.quotient_dim.monomials", comb(result.truncation - 1 + nvars, nvars))
            if any(frame[0] in _STABILIZING for frame in self._stack):
                self._bump("locdef.quotient_dim.in_stabilization", 1)
        elif name == "locdef.milnor_number" and any(
            frame[0] in _DUVAL_SPANS for frame in self._stack
        ):
            self._bump("duval.oracle_s", elapsed)

    # -- results --------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in sorted(self.stats.items())
        }
