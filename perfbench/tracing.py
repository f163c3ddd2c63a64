"""Spans around funcldp's public functions, installed from outside the program.

Each wrapped call records one span: name, start, end, the enclosing span and
a few attributes (rows compared, replicates, curve-matrix size).  Spans stay
in memory and are written out when the run ends.  The wrappers replace the
name where callers look it up: module attributes (which are also the
module's globals, so calls inside the module are caught too), the name
``funcldp.cli`` imported from ``estimator``, and methods on their classes.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from collections import defaultdict

_MB = 1e6


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name, attrs=None, memory: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name, or a function of the bound arguments that
        returns it.  ``attrs(arguments, result)`` returns the span's
        attributes.  ``memory`` records the tracemalloc peak inside the call.
        """
        fn = vars(owner)[attr]
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            arguments = (signature.bind(*args, **kwargs).arguments
                         if attrs or callable(name) else None)
            span = [name(arguments) if callable(name) else name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, {}]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if memory:
                    span[4]["peak_mb"] = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                tracer._stack.pop()
            if attrs:
                span[4].update(attrs(arguments, result))
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], **s[4]}
                 for s in self.spans],
                fh,
            )


def install(tracer: Tracer, funcldp) -> None:
    """Wrap the public functions of every layer that the workloads reach."""
    cli, funcdata, estimator = funcldp.cli, funcldp.funcdata, funcldp.estimator
    ratefn, simulate, covering = funcldp.ratefn, funcldp.simulate, funcldp.covering

    tracer.wrap(cli, "run", lambda a: f"cli.run.{a['cfg'].get('command')}")
    for metric in (funcdata.LpDistance, funcdata.IntegralDifference):
        tracer.wrap(metric, "distance_to_rows", "funcdata.distance_to_rows",
                    attrs=lambda a, r: {"rows": int(a["rows"].shape[0])})
    tracer.wrap(estimator, "z_n", "estimator.z_n")
    tracer.wrap(cli, "z_n", "estimator.z_n")
    tracer.wrap(estimator, "finite_n_log_mgf", "estimator.finite_n_log_mgf",
                attrs=lambda a, r: {"replicates": int(a["replicates"])})
    tracer.wrap(simulate, "sample_dataset", "simulate.sample_dataset",
                attrs=lambda a, r: {"n": int(a["n"]), "mb": r.x_values.nbytes / _MB})
    tracer.wrap(simulate, "pointwise_ladder", "simulate.pointwise_ladder",
                attrs=lambda a, r: {"replicates": list(a["cfg"].replicates)})
    tracer.wrap(simulate, "uniform_ladder", "simulate.uniform_ladder")
    tracer.wrap(simulate, "induced_weight", "simulate.induced_weight")
    tracer.wrap(simulate, "bandwidth_schedule", "simulate.bandwidth_schedule",
                attrs=lambda a, r: {"n": int(a["n"])})
    for fn in ("tilted_mean", "tilted_mean_range", "tilted_mean_inverse",
               "closed_rate_uniform", "ratio_rate_closed", "ratio_rate_derivatives",
               "two_sided_rate", "legendre_rate", "ratio_rate"):
        tracer.wrap(ratefn, fn, f"ratefn.{fn}")
    tracer.wrap(covering, "greedy_cover", "covering.greedy_cover", memory=True)
    tracer.wrap(covering, "coverage_radii", "covering.coverage_radii")
    tracer.wrap(covering, "scale_class", "covering.scale_class")


def _children(spans) -> dict[int, list[int]]:
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def layer_metrics(spans: list[list], rounds: int, names: list[str]) -> dict[str, float]:
    """Per-round values of every per-layer metric named in ``names``.

    ``<span>.calls`` counts spans, ``<span>.s`` sums their durations,
    ``<layer>.self_s`` sums span durations less the time their child spans
    cover, and the per-rung figures divide a rung's time by its replicates.
    """
    kids = _children(spans)
    calls = defaultdict(int)
    seconds = defaultdict(float)
    extra = defaultdict(float)
    for i, (name, start, end, _, attrs) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        seconds[name] += duration
        child = sum(spans[k][2] - spans[k][1] for k in kids[i])
        extra[name.split(".")[0] + ".self_s"] += duration - child
        if "rows" in attrs:
            extra[name + ".rows"] += attrs["rows"]
        if "mb" in attrs:
            extra[name + ".mb"] += attrs["mb"]
        if "peak_mb" in attrs:
            extra[name + ".peak_mb"] = max(extra[name + ".peak_mb"], attrs["peak_mb"])
        if name == "estimator.finite_n_log_mgf":
            sizes = [spans[k][4]["n"] for k in kids[i] if "n" in spans[k][4]]
            if sizes:
                extra[f"{name}.us_per_replicate.n{sizes[0]}"] += (
                    1e6 * duration / attrs["replicates"]
                )
        if name == "simulate.pointwise_ladder":
            rungs = [k for k in kids[i] if spans[k][0] == "simulate.bandwidth_schedule"]
            ends = [spans[k][1] for k in rungs[1:]] + [end]
            for k, stop, reps in zip(rungs, ends, attrs["replicates"]):
                extra[f"simulate.us_per_replicate.n{spans[k][4]['n']}"] += (
                    1e6 * (stop - spans[k][1]) / reps
                )
    out = {}
    for metric in names:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "rows"):
            total = calls[base] if field == "calls" else int(extra[metric])
            out[metric] = total // rounds if total % rounds == 0 else total / rounds
        elif field == "peak_mb":
            out[metric] = extra[metric]
        elif field == "s":
            out[metric] = seconds[base] / rounds
        else:
            out[metric] = extra[metric] / rounds
    return out
