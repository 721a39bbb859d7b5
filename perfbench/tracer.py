"""Per-layer tracing of one padsum CLI invocation, from outside the package.

Run as::

    python3 perfbench/tracer.py STATS_FILE CLI_ARG...

with ``src`` on ``PYTHONPATH``.  It imports ``padsum.cli``, wraps the
functions in ``TARGETS``, calls ``padsum.cli.main(CLI_ARGS)`` in this process
(the CLI prints to stdout as usual), writes the recorded spans and counters
to STATS_FILE as JSON and exits with main's return code.

A wrapper is bound at every name a caller resolves: each module global of
the ``padsum`` package that holds the original function (``cli.padic_sum_verify``,
``series.val_rat``, ``padic.val_int``, ...), and each class attribute that
holds it (``GenPoly.eval``, ``RatPoly.__call__``, ``Valuation.__init__``, ...).
Coarse functions record a span each; the hot ones, ``val_rat`` and below,
keep only a call counter, and ``val_rat`` and ``GenPoly.eval`` also add up
their time.  A target that is bound nowhere is an error, never a zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (metric prefix, padsum module, attribute path, kind)
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("cli.main", "cli", "main", SPAN),
    ("cli.load_or_build_bundle", "cli", "load_or_build_bundle", SPAN),
    ("tables.TableSet.build", "tables", "TableSet.build", SPAN),
    ("tables.gen_poly_table", "tables", "gen_poly_table", SPAN),
    ("tables.recurrence_residuals", "tables", "recurrence_residuals", SPAN),
    ("tables.derive_corrections", "tables", "derive_corrections", SPAN),
    ("tables.corrections_by_recurrence", "tables", "corrections_by_recurrence", SPAN),
    ("tables.int_pairs", "tables", "int_pairs", SPAN),
    ("tables.bundle_to_json", "tables", "bundle_to_json", SPAN),
    ("series.series_error_profile", "series", "series_error_profile", SPAN),
    ("series.padic_sum_verify", "series", "padic_sum_verify", SPAN),
    ("series.finite_identity_sweep", "series", "finite_identity_sweep", SPAN),
    ("series.telescope_sweep", "series", "telescope_sweep", SPAN),
    ("padic.expand", "padic", "expand", SPAN),
    ("fps.check_first_order_ode", "fps", "check_first_order_ode", SPAN),
    ("fps.check_second_order_ode", "fps", "check_second_order_ode", SPAN),
    ("padic.val_rat", "padic", "val_rat", TIMED),
    ("poly.GenPoly.eval", "poly", "GenPoly.eval", TIMED),
    ("padic.val_int", "padic", "val_int", COUNTED),
    ("padic.val_factorial", "padic", "val_factorial", COUNTED),
    ("padic.Valuation", "padic", "Valuation.__init__", COUNTED),
    ("poly.RatPoly.call", "poly", "RatPoly.__call__", COUNTED),
    ("poly.RatPoly.mul", "poly", "RatPoly.__mul__", COUNTED),
    ("kernel.factorial", "kernel", "factorial", COUNTED),
)

# Extra counters filled by the two hooks in install().
CACHE_LOOKUPS, CACHE_HITS = "cli.cache.lookups", "cli.cache.hits"
EVAL_USEFUL, EVAL_DONE = "series.remainder_eval.useful", "series.remainder_eval.done"
EXTRA_COUNTS = (CACHE_LOOKUPS, CACHE_HITS, EVAL_USEFUL, EVAL_DONE)


class Tracer:
    """Spans and counters of one process, kept in memory until dumped.

    A span is [name, start, end, parent index]; all spans of a process
    belong to its one CLI invocation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            record = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def timed(self, name: str, fn):
        counts, busy, clock = self.counts, self.busy, time.perf_counter
        counts[name] = 0
        busy[name] = 0.0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - start

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "busy": self.busy}


def _with_cache_hook(tracer: Tracer, fn):
    """A bundle lookup is a hit when no TableSet.build ran inside it."""
    counts = tracer.counts
    counts[CACHE_LOOKUPS] = counts[CACHE_HITS] = 0

    def wrapper(*args, **kwargs):
        builds = counts["tables.TableSet.build"]
        try:
            return fn(*args, **kwargs)
        finally:
            counts[CACHE_LOOKUPS] += 1
            counts[CACHE_HITS] += counts["tables.TableSet.build"] == builds

    return wrapper


def _with_eval_hook(tracer: Tracer, fn):
    """Per profile, n_max times the nonzero coefficients of the spec is the
    number of remainder evaluations needed; GenPoly.eval calls are those done."""
    counts = tracer.counts
    counts[EVAL_USEFUL] = counts[EVAL_DONE] = 0

    def wrapper(spec, claimed, n_max, *args, **kwargs):
        evals = counts["poly.GenPoly.eval"]
        result = fn(spec, claimed, n_max, *args, **kwargs)
        counts[EVAL_DONE] += counts["poly.GenPoly.eval"] - evals
        counts[EVAL_USEFUL] += n_max * sum(1 for c in spec.as_coeffs() if c)
        return result

    return wrapper


def _rebind(namespaces, orig, wrapper, what: str) -> None:
    bound = 0
    for ns in namespaces:
        for name, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, name, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"tracer target {what} is bound nowhere")


def install(tracer: Tracer) -> None:
    """Wrap every target at every name that holds it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "padsum" or name.startswith("padsum."))]
    make = {SPAN: tracer.span, TIMED: tracer.timed, COUNTED: tracer.counted}
    for prefix, module, path, kind in TARGETS:
        owner = importlib.import_module(f"padsum.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        wrapper = make[kind](prefix, raw.__func__ if is_classmethod else raw)
        if prefix == "cli.load_or_build_bundle":
            wrapper = _with_cache_hook(tracer, wrapper)
        elif prefix == "series.series_error_profile":
            wrapper = _with_eval_hook(tracer, wrapper)
        if is_classmethod:
            wrapper = classmethod(wrapper)
        # A method is looked up on its class, a function wherever it was imported.
        _rebind([owner] if classes else modules, raw, wrapper, f"padsum.{module}.{path}")


def summarize(stats: dict) -> dict[str, float]:
    """Flat per-layer figures of one traced invocation.

    Every target has ``calls`` (``allocs`` for a constructor); a span name
    also has ``total_s`` (its outermost spans) and ``self_s`` (each span
    minus the direct child spans it covers), and a timed one ``total_s``.
    """
    spans = stats["spans"]
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    counts = stats["counts"]
    out: dict[str, float] = {name: counts[name] for name in EXTRA_COUNTS}
    for prefix, _, path, kind in TARGETS:
        out[f"{prefix}.allocs" if path.endswith(".__init__") else f"{prefix}.calls"] = counts[prefix]
        if kind == SPAN:
            out[f"{prefix}.total_s"] = out[f"{prefix}.self_s"] = 0.0
        elif kind == TIMED:
            out[f"{prefix}.total_s"] = stats["busy"][prefix]
    for index, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.self_s"] += end - start - children[index]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            out[f"{name}.total_s"] += end - start
    return out


def main(argv: list[str]) -> int:
    stats_file, cli_args = argv[0], argv[1:]
    import padsum.cli

    tracer = Tracer()
    install(tracer)
    try:
        return padsum.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(stats_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
