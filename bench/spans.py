"""Spans around calls into the package's layers, recorded from outside.

:func:`install` replaces the functions listed in ``TARGETS`` with wrappers,
in their own module and in every ``hodgeint`` module that imported them, so
calls between layers are seen too.  The package itself is not changed.

A span is ``[name, start, end, parent index]``.  A call whose innermost open
span has the same name (a layer re-entering its own public function) is
counted but opens no new span.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List

# span name -> (module under hodgeint, functions or Class.method names).
# The layer is the part of the span name before the first dot.
TARGETS = {
    "psi": ("psi", ["psi_integral", "psi_or_zero"]),
    "psi.point_partition": ("psi", ["point_partition"]),
    "phase_space": (
        "phase_space",
        ["TruncatedSeries.exp", "TruncatedSeries.__mul__", "TruncatedSeries.__add__"],
    ),
    "hodge.closed": (
        "hodge",
        [
            "lambda_g",
            "lambda_g_or_zero",
            "lambda_g_gm1",
            "lambda_g_gm1_or_zero",
            "lambda_cube",
            "b_constant",
            "c_constant",
            "gg_const",
        ],
    ),
    "hodge.solver": ("hodge", ["lambda_g_solver", "lambda_g_gm1_solver"]),
    # _gm1_or_zero is private, but constraints imports it
    "hodge.gm1": ("hodge", ["lambda_gm1", "_gm1_or_zero", "lambda_g_gm2_or_none"]),
    "constraints": ("constraints", ["x_curve", "y_curve", "x_surface", "y_surface"]),
    "mumford.euler": (
        "mumford",
        ["euler_class", "euler_class_genus1", "mumford_reduce", "reduce_lambda_monomial"],
    ),
    "mumford.gw0": ("mumford", ["degree0_gw"]),
    "operators.build": (
        "operators",
        ["point_operator", "general_operator", "curve_operator", "surface_operator"],
    ),
    "operators.compose": (
        "operators",
        [
            "commutator",
            "DifferentialOperator.__mul__",
            "DifferentialOperator.__add__",
            "DifferentialOperator.__sub__",
            "DifferentialOperator.scale",
            "DifferentialOperator.level_filter",
        ],
    ),
    "operators.apply": ("operators", ["apply_operator"]),
    "cache.load": ("cache", ["load_cache"]),
    "cache.save": ("cache", ["save_cache"]),
    "series1d.bseq": ("series1d", ["b_sequence"]),
    "cli": ("cli", ["main"]),
}


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.calls: Counter = Counter()
        self.missing: List[str] = []

    def wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self.stack, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> Dict:
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_s: Dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, children):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        return {
            "self_s": self_s,
            "calls": dict(self.calls),
            "spans": len(self.spans),
            "missing": self.missing,
        }


def install(rec: Recorder) -> None:
    """Wrap every target; record the names the package lacks.  Importing a
    module here, ahead of the package's own lazy import, keeps its calls
    attributed to it."""
    for span, (module_name, attrs) in TARGETS.items():
        try:
            module = importlib.import_module(f"hodgeint.{module_name}")
        except ModuleNotFoundError:
            rec.missing.append(module_name)
            continue
        for attr in attrs:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None)
            if original is None:
                rec.missing.append(f"{module_name}.{attr}")
                continue
            traced = rec.wrap(span, original)
            setattr(owner, name, traced)
            if owner_name:
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("hodgeint"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
