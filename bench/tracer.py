"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of each ``qstsim`` layer
module and replaces every binding of it in every loaded ``qstsim`` module,
because the package binds names with ``from .x import y``.  Each call records
a span ``[name, start, end, parent, job, value]`` in memory; ``value`` holds
a count measured at the boundary (samples asked of ``integrate``, bytes
written by ``output.write_*``, sweep grid cells, objective evaluations of an
optimizer).  Nothing under ``src/`` is edited, and a function a later change
removes is simply not wrapped: its metrics read as absent, which the report
gives as zero.

A small ``fig3`` job makes some 40k spans, so the runner folds each job's
spans into per-name totals (calls, inclusive, self time, value) once the job
ends, and keeps and writes out those totals rather than every span.

The module also turns spans and ``-X importtime`` logs into the per-layer
metrics, so that those can be tested on hand-built inputs.
"""

import functools
import inspect
import os
import sys
import time

LAYERS = ("core", "analytic", "lindblad", "measurement", "protocol", "optimize", "sweeps", "output", "cli")

NAME, START, END, PARENT, JOB, VALUE = range(6)


def _argument(fn, arg: str):
    """A getter for argument ``arg`` of a call to ``fn``, or None if ``fn``
    takes no such argument."""
    names = list(inspect.signature(fn).parameters)
    if arg not in names:
        return None
    position = names.index(arg)
    return lambda args, kwargs: kwargs[arg] if arg in kwargs else args[position]


def _measure_for(layer: str, name: str, fn):
    """How a span of ``fn`` gets its value: the name of an objective argument
    whose calls to count, and a function of (args, kwargs, result) to call
    after it returns; either may be None."""
    if layer == "lindblad" and name == "integrate":
        samples = _argument(fn, "sample_times")
        if samples:
            return None, lambda args, kwargs, result: len(samples(args, kwargs))
    if layer == "output" and name.startswith("write_"):
        path = _argument(fn, "path")
        if path:
            return None, lambda args, kwargs, result: os.path.getsize(path(args, kwargs))
    if layer == "sweeps" and name.endswith("_sweep"):
        return None, lambda args, kwargs, result: len(result.axis_values) * len(result.series)
    if layer == "optimize" and "f" in inspect.signature(fn).parameters:
        return "f", None
    return None, None


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []  # cleared in place by take(); the wrappers hold this list
        self.stack = []
        self.job = None

    def _wrap(self, span_name: str, fn, counted_arg, post):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        arg_pos = list(inspect.signature(fn).parameters).index(counted_arg) if counted_arg else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(span)
            if arg_pos is not None:
                args, kwargs = _count_calls(span, arg_pos, counted_arg, args, kwargs)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if post is not None:
                try:
                    span[VALUE] = post(args, kwargs, result)
                except Exception:  # a count that cannot be taken stays 0; the call already succeeded
                    pass
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qstsim.{layer}")
            if module is None:
                continue
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                counted_arg, post = _measure_for(layer, name, fn)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, counted_arg, post))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qstsim" and not module_name.startswith("qstsim."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)

    def take(self) -> list:
        """The spans recorded since the last call, removed from the recorder."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _count_calls(span, position, name, args, kwargs):
    """Swap the objective ``f`` for a counter, unless an outer optimizer
    span already counts it."""
    if name in kwargs:
        f = kwargs[name]
    elif position < len(args):
        f = args[position]
    else:
        return args, kwargs
    if getattr(f, "_bench_counted", False):
        return args, kwargs

    def counted(*a, **k):
        span[VALUE] += 1
        return f(*a, **k)

    counted._bench_counted = True
    if name in kwargs:
        return args, {**kwargs, name: counted}
    return args[:position] + (counted,) + args[position + 1:], kwargs


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> "list[float]":
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span[START]
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result


CALLS, INCLUSIVE, SELF, TOTAL = range(4)


def fold(spans, into: "dict | None" = None) -> dict:
    """Add spans into per-name totals ``[calls, inclusive_s, self_s, value]``."""
    totals = {} if into is None else into
    for span, own in zip(spans, self_times(spans)):
        row = totals.setdefault(span[NAME], [0, 0.0, 0.0, 0])
        row[CALLS] += 1
        row[INCLUSIVE] += span[END] - span[START]
        row[SELF] += own
        row[TOTAL] += span[VALUE]
    return totals


def layer_metrics(totals: dict, jobs: int) -> "dict[str, float]":
    """Per-job layer metrics from the folded spans of ``jobs`` jobs (import
    and overhead metrics are added by the caller)."""

    def get(name, column):
        return totals.get(name, [0, 0.0, 0.0, 0])[column]

    def over_layer(layer, column, prefix=""):
        return sum(row[column] for name, row in totals.items() if name.startswith(f"{layer}.{prefix}"))

    per_job = {
        "cli.main.self_s": get("cli.main", SELF),
        "cli.parse_config.self_s": get("cli.parse_config", SELF),
        "output.files": over_layer("output", CALLS, "write_"),
        "output.bytes": over_layer("output", TOTAL, "write_"),
        "sweeps.grid_points": over_layer("sweeps", TOTAL),
        "protocol.run_protocol.calls": get("protocol.run_protocol", CALLS),
        "analytic.analytic_rho.calls": get("analytic.analytic_rho", CALLS),
        "measurement.apply_measurement_qubit1.calls": get("measurement.apply_measurement_qubit1", CALLS),
        "measurement.apply_reversal_qubit2.calls": get("measurement.apply_reversal_qubit2", CALLS),
        "optimize.fevals": over_layer("optimize", TOTAL),
        "lindblad.integrate.calls": get("lindblad.integrate", CALLS),
        "lindblad.samples": get("lindblad.integrate", TOTAL),
        "core.generator_builds": get("core.hamiltonian", CALLS) + get("core.collapse_operators", CALLS),
    }
    for layer in LAYERS[:-1]:  # cli is split into main and parse_config above
        per_job[f"{layer}.self_s"] = over_layer(layer, SELF)
    metrics = {name: value / jobs for name, value in per_job.items()}
    calls = get("protocol.run_protocol", CALLS)
    metrics["protocol.us_per_call"] = 1e6 * get("protocol.run_protocol", INCLUSIVE) / calls if calls else 0.0
    return metrics


# ---------------------------------------------------------------------------
# -X importtime


def import_times(log: str) -> "dict[str, float]":
    """Seconds spent importing qstsim (cumulative) and scipy (its outermost
    modules, cumulative) from a ``-X importtime`` log."""
    entries = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative_us, label = line.split("|")
        name = label[1:].rstrip()  # one separator blank, then two per nesting level
        entries.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cumulative_us)))
    qstsim_us = scipy_us = 0
    ancestors = []
    # the log is post-order; walked backwards every parent precedes its children
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        if depth == 0 and (name == "qstsim" or name.startswith("qstsim.")):
            qstsim_us += cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_us += cumulative
        ancestors.append(name)
    return {"import.qstsim_s": qstsim_us * 1e-6, "import.scipy_s": scipy_us * 1e-6}
