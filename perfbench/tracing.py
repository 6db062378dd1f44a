"""Span tracing of ``sqgkit`` from outside the package.

The tracer wraps the functions each module offers to the others (the layer
boundaries) by replacing them, for the duration of one traced op, in every
``sqgkit`` namespace that binds them.  The package source is not touched, and
untraced ops run on the original functions.  Spans (name, layer, start, end,
parent, op id) are kept in memory and written out when the run ends.

Counts are taken at the same boundaries: ``numpy.fft`` calls, IFRK4 steps,
file bytes, closed-form evaluations and validations.

A layer's self time is the duration of its spans minus the part their child
spans cover; the op's root span belongs to the ``bench`` layer, so its self
time is the remainder left outside any package span, and the self times of
all layers add up to the traced op time exactly.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

# The boundary functions of each layer (module).  Private names are the ones
# another module imports, e.g. ``integrator`` calls ``spectral._nonlinear_hat``.
LAYER_FUNCTIONS = {
    "spectral": ("forward_transform", "inverse_transform", "velocity_from_theta",
                 "nonlinear_term", "fractional_laplacian", "inv_sqrt_laplacian",
                 "_nonlinear_hat", "_velocity_hats", "_to_values", "_to_coefficients"),
    "solutions": ("validate", "eval_theta", "eval_velocity", "eval_dtheta_dt",
                  "builtin_samples", "_theta_at", "_dtheta_dt_at"),
    "integrator": ("simulate", "step"),
    "verify": ("residual", "decay_rate_fit", "pattern_correlation",
               "unidirectionality_check", "solver_vs_exact"),
    "fileio": ("parse_config", "write_field_csv", "read_field_csv",
               "read_field_csv_time", "render_contour"),
    "scenario": ("run_scenario", "run_builtin"),
    "cli": ("main",),
}
LAYERS = tuple(LAYER_FUNCTIONS)
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
EVAL_NAMES = frozenset({"eval_theta", "eval_velocity", "eval_dtheta_dt",
                        "_theta_at", "_dtheta_dt_at"})
WRITERS = frozenset({"write_field_csv", "render_contour"})

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """Collects spans and boundary counts over the traced ops of one run."""

    def __init__(self, sqgkit, numpy):
        self.sqg = sqgkit
        self.np = numpy
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.dt = None            # the op's configured dt, for short-step counts
        self.counts: dict[str, float] = {}
        self.integrator_depth = 0
        self.patches = self._plan()

    # -- installation ------------------------------------------------------

    def _namespaces(self):
        yield self.sqg
        for name in LAYERS:
            yield getattr(self.sqg, name)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every boundary binding."""
        plan = []
        for layer, names in LAYER_FUNCTIONS.items():
            home = getattr(self.sqg, layer)
            for name in names:
                original = getattr(home, name)
                wrapper = self._span_wrapper(original, name, layer)
                for ns in self._namespaces():
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            plan.append((ns, attr, original, wrapper))
        integ = self.sqg.integrator
        plan.append((integ, "_ifrk4_step", integ._ifrk4_step,
                     self._step_counter(integ._ifrk4_step)))
        for name in FFT_FUNCTIONS:
            original = getattr(self.np.fft, name)
            plan.append((self.np.fft, name, original, self._fft_counter(original)))
        return plan

    def install(self) -> None:
        for ns, attr, _, wrapper in self.patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self.patches:
            setattr(ns, attr, original)

    # -- wrappers ----------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open_span(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1, self.op_id])
        self.stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][END] = time.perf_counter_ns()

    def _span_wrapper(self, fn, name: str, layer: str):
        in_integrator = layer == "integrator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open_span(name, layer)
            self.integrator_depth += in_integrator
            try:
                return fn(*args, **kwargs)
            finally:
                self.integrator_depth -= in_integrator
                self.close_span(idx)
                self._count_call(name, args, kwargs)
        return traced

    def _count_call(self, name: str, args, kwargs) -> None:
        if name == "validate":
            self.count("validate_calls")
        elif name == "read_field_csv":
            self._count_file("bytes_read", args[0] if args else kwargs["path"])
        elif name in WRITERS:
            self._count_file("bytes_written", args[1] if len(args) > 1 else kwargs["path"])

    def _count_file(self, key: str, path) -> None:
        try:
            self.count(key, os.path.getsize(path))
        except OSError:
            pass

    def _step_counter(self, fn):
        @functools.wraps(fn)
        def counted(c, h, *rest):
            self.count("steps")
            if h != self.dt:
                self.count("short_steps")
            return fn(c, h, *rest)
        return counted

    def _fft_counter(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.count("fft_calls")
            self.count("fft_points", a.size)
            self.count("fft_bytes", a.nbytes + out.nbytes)
            if self.integrator_depth:
                self.count("fft_in_integrator")
            return out
        return counted

    # -- analysis ----------------------------------------------------------

    def self_times(self, ops: set[int]) -> dict[str, float]:
        """Summed self time in ns per layer (``bench`` = outside any layer)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {layer: 0.0 for layer in ("bench",) + LAYERS}
        for i, s in enumerate(self.spans):
            if s[OP] in ops:
                out[s[LAYER]] += s[END] - s[START] - child[i]
        return out

    def spans_named(self, name: str, ops: set[int]) -> list[list]:
        return [s for s in self.spans if s[NAME] == name and s[OP] in ops]

    def eval_calls(self, ops: set[int]) -> int:
        """Closed-form evaluations, counting nested ones (eval → _theta_at) once."""
        return sum(1 for s in self.spans
                   if s[OP] in ops and s[NAME] in EVAL_NAMES
                   and not (s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] in EVAL_NAMES))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, ops: set[int], op_counts: dict[int, dict],
                  op_ns: dict[int, int], untraced_ns: list[int]) -> dict[str, float]:
    """Per-layer metrics per traced op, from the spans and counts of ``ops``.

    ``op_counts`` maps op id to that op's counts; ``op_ns`` to its traced
    duration; ``untraced_ns`` are the paired untraced durations.
    """
    n = len(ops)
    ms = 1e-6
    selfs = tracer.self_times(ops)
    total = {k: sum(c.get(k, 0) for i, c in op_counts.items() if i in ops)
             for k in ("fft_calls", "fft_points", "fft_bytes", "fft_in_integrator",
                       "steps", "short_steps", "validate_calls", "bytes_read",
                       "bytes_written", "stability_warnings")}

    def inclusive_ms(name):
        return [(s[END] - s[START]) * ms for s in tracer.spans_named(name, ops)]

    def per_op(x):
        return x / n

    def rate(nbytes, durations):
        secs = sum(durations) * 1e-3
        return nbytes / 1e6 / secs if secs > 0 else 0.0

    simulate_ms = sum(inclusive_ms("simulate"))
    residual_ms = inclusive_ms("residual")
    csv_read_ms = inclusive_ms("read_field_csv")
    return {
        "spectral.busy_ms": per_op(selfs["spectral"] * ms),
        "spectral.fft_calls": per_op(total["fft_calls"]),
        "spectral.fft_points": per_op(total["fft_points"]),
        "spectral.fft_bytes_computed": per_op(total["fft_bytes"]),
        "integrator.busy_ms": per_op(selfs["integrator"] * ms),
        "integrator.steps": per_op(total["steps"]),
        "integrator.short_steps": per_op(total["short_steps"]),
        "integrator.ms_per_step": simulate_ms / total["steps"] if total["steps"] else 0.0,
        "integrator.fft_per_step": (total["fft_in_integrator"] / total["steps"]
                                    if total["steps"] else 0.0),
        "integrator.stability_warnings": per_op(total["stability_warnings"]),
        "solutions.busy_ms": per_op(selfs["solutions"] * ms),
        "solutions.eval_calls": per_op(tracer.eval_calls(ops)),
        "solutions.validate_calls": per_op(total["validate_calls"]),
        "verify.busy_ms": per_op(selfs["verify"] * ms),
        "verify.residual_ms": statistics.median(residual_ms) if residual_ms else 0.0,
        "verify.residual_calls": per_op(len(residual_ms)),
        "fileio.busy_ms": per_op(selfs["fileio"] * ms),
        "fileio.render_ms": per_op(sum(inclusive_ms("render_contour"))),
        "fileio.bytes_written": per_op(total["bytes_written"]),
        "fileio.bytes_read": per_op(total["bytes_read"]),
        "fileio.write_mb_per_s": rate(total["bytes_written"],
                                      inclusive_ms("write_field_csv")
                                      + inclusive_ms("render_contour")),
        "fileio.read_mb_per_s": rate(total["bytes_read"], csv_read_ms),
        "scenario.self_ms": per_op(selfs["scenario"] * ms),
        "cli.self_ms": per_op(selfs["cli"] * ms),
        "trace.op_ms": per_op(sum(op_ns[i] for i in ops) * ms),
        "trace.unattributed_ms": per_op(selfs["bench"] * ms),
        "trace.overhead_frac": sum(op_ns[i] for i in ops) / sum(untraced_ns) - 1.0,
    }
