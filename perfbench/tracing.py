"""Spans around calls into each knoedel layer, recorded from outside.

``Tracer.install()`` rebinds the public functions and series/polynomial
methods named in ``FUNCTION_SPANS`` and ``METHOD_SPANS`` to timing
wrappers, everywhere the package modules hold them (module attributes
and module-level tables such as ``cli.SERIES_TOKENS``), and
``uninstall()`` puts the originals back.  ``simulate`` also runs under
tracemalloc for the peak bytes of its arrays.  Each call becomes one span
(name, start, end, parent, request id, counters) kept in memory.  Self
time is a span's duration minus the time its child spans cover.

Counters that need work after the call (support sizes, numerator bits)
run in a ``trace.counters`` span next to the call, so that work is
charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

MODULES = ("knoedel", "knoedel.cli", "knoedel.models", "knoedel.closedforms",
           "knoedel.exactmath", "knoedel.montecarlo", "knoedel.verification")

SUITES = {
    "normalization_and_support_suite": "normalization_and_support",
    "oracle_equivalence_suite": "oracle_equivalence",
    "recursion_fidelity_suite": "recursion_fidelity",
    "closed_form_grid_suite": "closed_form_grid",
    "series_suite": "series",
    "kernel_identity_suite": "kernel_identity",
    "girard_waring_suite": "girard_waring",
    "column_consistency_suite": "column_consistency",
    "simulation_suite": "simulation",
}


def _dp_counters(args, rows):
    supports = [(row, row.support()) for row in rows]
    return {
        "state_updates": sum(len(s) for _, s in supports),
        "max_num_bits": max(row.prob(x).numerator.bit_length() for row, s in supports for x in s),
    }


# (module, function) -> (span name, counters from (args, result) or None)
FUNCTION_SPANS = {
    ("knoedel.cli", "decimal_string"): ("cli.decimal_string", None),
    ("knoedel.cli", "_emit"): ("cli.emit", lambda a, r: {"rows": len(a[0])}),
    ("knoedel.models", "dp_table"): ("models.dp_table", _dp_counters),
    ("knoedel.models", "brute_force_distribution"):
        ("models.brute_force", lambda a, r: {"paths": 2 ** a[1]}),
    **{("knoedel.closedforms", f): ("closedforms.coeff", lambda a, r: {"zero": r == 0})
       for f in ("f_state_coeff", "g_state_coeff", "fbeta_coeff", "gbeta_coeff", "g0_coeff")},
    **{("knoedel.closedforms", f): ("closedforms.series", None)
       for f in ("t_series", "inv_one_minus_t_series", "bad_factor_root_series",
                 "f0_series", "g0_series")},
    **{("knoedel.closedforms", f): ("closedforms.identities", None)
       for f in ("kernel_identity_results", "girard_waring_power_sum",
                 "girard_waring_quotient", "symmetric_pair", "f_u_coeff", "g_u_coeff")},
    ("knoedel.exactmath", "binom_general"): ("exactmath.binom_general", None),
    ("knoedel.montecarlo", "four_sigma_report"): ("montecarlo.four_sigma", None),
    **{("knoedel.verification", f): (f"verification.{s}", lambda a, r: {"checks": r.checks})
       for f, s in SUITES.items()},
}

# (class, method) -> span name; aliases such as __rmul__ = __mul__ follow.
METHOD_SPANS = {
    ("TruncatedSeries", "__mul__"): "exactmath.series_mul",
    ("TruncatedSeries", "recip"): "exactmath.recip",
    ("TruncatedSeries", "compose"): "exactmath.compose",
    ("TruncatedSeries", "reversion"): "exactmath.reversion",
    ("Polynomial", "__mul__"): "exactmath.poly_mul",
}


class _PeakMemory:
    """``simulate`` run under tracemalloc, which gives the peak bytes it
    allocates, mostly its numpy arrays."""

    def __init__(self, fn):
        self.fn = fn
        self.peak = 0

    def __call__(self, *args, **kwargs):
        tracemalloc.start()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def counters(self, args, result) -> dict:
        return {"draws": args[0].trials * args[0].steps, "array_bytes": self.peak}


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        # (name, start, end, parent index or -1, request id, counters or None)
        self.spans: list[tuple] = []
        self.request = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, args=(), kwargs=None, counters=None):
        """Call ``fn`` inside a span and return its result."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.request, None)
        if counters is not None:
            # A sibling of this span inside the same parent, so the
            # parent's self time does not include it either.
            attrs = self.span("trace.counters", counters, (args, result))
            spans[index] = spans[index][:5] + (attrs,)
        return result

    def _wrap(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, counters)
        return wrapper

    def install(self) -> None:
        modules = [vars(importlib.import_module(m)) for m in MODULES]
        # Tables of functions that a module built at import, such as
        # cli.SERIES_TOKENS, hold the originals too.
        namespaces = modules + [value for namespace in modules
                                for key, value in namespace.items()
                                if isinstance(value, dict) and not key.startswith("__")]
        for (module, attr), (name, counters) in FUNCTION_SPANS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, counters)
            for namespace in namespaces:
                self._rebind(namespace, original, wrapper)
        simulate = importlib.import_module("knoedel.montecarlo").simulate
        measured = _PeakMemory(simulate)
        wrapper = self._wrap("montecarlo.simulate", measured, measured.counters)
        for namespace in namespaces:
            self._rebind(namespace, simulate, wrapper)
        exactmath = importlib.import_module("knoedel.exactmath")
        for (cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(exactmath, cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(name, original)
            for key, value in list(vars(cls).items()):
                if value is original:
                    self._patches.append((cls, key, original))
                    setattr(cls, key, wrapper)

    def _rebind(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                self._patches.append((namespace, key, original))
                namespace[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, request, counters."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[tuple], first: int = 0) -> dict[str, float]:
    """Per-layer self times and counters of the spans from ``first`` on.

    Parent indices are positions in the full list; the spans from
    ``first`` on must not be children of earlier ones.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, start, end, parent, _, _ in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, int] = defaultdict(int)
    coeff_calls = coeff_zero = 0
    for index in range(first, len(spans)):
        name, start, end, parent, _, attrs = spans[index]
        self_s[name] += end - start - child_time[index]
        total[name] += end - start
        calls[name] += 1
        for key, value in (attrs or {}).items():
            if key in ("max_num_bits", "array_bytes"):
                sums[key] = max(sums[key], value)
            elif key == "zero":
                # g_state_coeff answers state 0 through g0_coeff: count once.
                if parent < 0 or spans[parent][0] != name:
                    coeff_calls += 1
                    coeff_zero += value
            else:
                sums[key] += value
    out = {
        "models.dp_table.self_s": self_s["models.dp_table"],
        "models.dp_table.calls": calls["models.dp_table"],
        "models.dp_table.state_updates": sums["state_updates"],
        "models.dp_table.max_num_bits": sums["max_num_bits"],
        "models.brute_force.self_s": self_s["models.brute_force"],
        "models.brute_force.paths": sums["paths"],
        "closedforms.coeff.self_s": self_s["closedforms.coeff"],
        "closedforms.coeff.calls": coeff_calls,
        "closedforms.coeff.zero_result_share": coeff_zero / coeff_calls if coeff_calls else 0.0,
        "closedforms.series.self_s": self_s["closedforms.series"],
        "closedforms.identities.self_s": self_s["closedforms.identities"],
    }
    for op in ("binom_general", "series_mul", "recip", "compose", "reversion", "poly_mul"):
        out[f"exactmath.{op}.self_s"] = self_s[f"exactmath.{op}"]
        out[f"exactmath.{op}.calls"] = calls[f"exactmath.{op}"]
    sim_s = total["montecarlo.simulate"]
    out.update({
        "montecarlo.simulate.self_s": self_s["montecarlo.simulate"],
        "montecarlo.draws": sums["draws"],
        "montecarlo.draws_per_s": sums["draws"] / sim_s if sim_s else 0.0,
        "montecarlo.array_bytes": sums["array_bytes"],
        "montecarlo.four_sigma.self_s": self_s["montecarlo.four_sigma"],
    })
    for suite in SUITES.values():
        out[f"verification.{suite}.self_s"] = self_s[f"verification.{suite}"]
    out.update({
        "verification.checks": sums["checks"],
        "cli.format.self_s": self_s["cli.decimal_string"] + self_s["cli.emit"],
        "cli.decimal_string.calls": calls["cli.decimal_string"],
        "cli.rows": sums["rows"],
        "cli.output_bytes": sums["output_bytes"],
        "cli.command.self_s": self_s["cli.command"],
    })
    return out
