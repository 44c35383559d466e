"""Per-layer spans for the `reinhardt` CLI, recorded from outside the package.

Run as a script, this is the traced child process:

    python tracing.py SPANS_OUT CMD_ID ARGS...

It wraps every public function of the package's modules (and
``DimSet.values``), rebinds every module attribute that still names an
original, including the names ``cli``, ``classify`` and ``verifiers``
imported from other modules, then calls ``reinhardt.cli.main(ARGS)``.
Spans are kept in memory and written to SPANS_OUT as JSON at exit; each
has a name, start, end, parent span and command id.  A generator's span
counts the items it yielded and the time spent inside it (``busy``),
which is what its parent loses to it.  Nothing under ``src`` changes.

Imported, :func:`layer_metrics` turns the span files of one command
stream into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

LAYERS = ("cli", "dimsets", "storage", "classify", "partitions", "verifiers", "sequences")


def _table_out_bytes(args, result) -> dict[str, Any]:
    # computed from set lengths ((k^2 - k)/2 + 1 bits for base k), not measured
    sizes = (((k * k - k) // 2 + 1 + 7) // 8 for k in range(result.n_max + 1))
    return {"n": result.n_max, "out_bytes": sum(sizes)}


ANNOTATIONS: dict[str, Callable[[tuple, Any], dict[str, Any]]] = {
    "dimsets.build_table": _table_out_bytes,
    "storage.load_table": lambda args, result: {"bytes": args[0].tell()},
    "storage.save_table": lambda args, result: {"bytes": result},
    "classify.realizations": lambda args, result: {"items": len(result)},
}


def _suite(args, result) -> dict[str, Any]:
    return {"suite": result.suite, "n_checked": result.n_hi - result.n_lo + 1}


class Tracer:
    """In-memory spans of one command; `stack` holds the open span indices."""

    def __init__(self, cmd: int) -> None:
        self.cmd = cmd
        self.spans: list[dict[str, Any]] = []
        self.stack: list[int] = []

    def _open(self, name: str) -> tuple[int, dict[str, Any]]:
        span = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "cmd": self.cmd,
        }
        self.spans.append(span)
        return len(self.spans) - 1, span

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        annotate = ANNOTATIONS.get(name, _suite if name.startswith("verifiers.") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, span = self._open(name)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span["end"] = perf_counter()
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, span = self._open(name)
            span.update(busy=0.0, items=0)
            return self._drive(index, span, fn(*args, **kwargs))

        return traced

    def _drive(self, index: int, span: dict[str, Any], inner: Iterator) -> Iterator:
        while True:
            self.stack.append(index)
            started = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span["end"] = perf_counter()
                span["busy"] += span["end"] - started
                self.stack.pop()
            span["items"] += 1
            yield item


def install(tracer: Tracer):
    """Wrap the package's public functions; returns the patched `cli` module."""
    modules = {layer: importlib.import_module(f"reinhardt.{layer}") for layer in LAYERS}
    wrapped: dict[Callable, Callable] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    dimset = modules["dimsets"].DimSet
    dimset.values = tracer.wrap("dimsets.values", dimset.values)
    for module in [*modules.values(), importlib.import_module("reinhardt")]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    return modules["cli"]


def _metric_name(name: str) -> str:
    layer, _, fn = name.partition(".")
    return f"cli.{fn[4:]}" if layer == "cli" and fn.startswith("cmd_") else name


def layer_metrics(docs: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics from the span files of one command stream.

    A span's self time is its duration (``busy`` for generators) minus
    the durations of its child spans.  Keys: ``<fn>.s`` (self time),
    ``<fn>.calls``, ``<fn>.items``, ``<fn>.bytes`` for every traced
    function, ``<layer>.self_s``, ``verifiers.<suite>.s`` (inclusive) and
    ``.n_checked`` (n values scanned), the cache decisions, and the build's computed output
    size and growth exponent.
    """
    out: dict[str, float] = defaultdict(float)
    builds: dict[int, float] = defaultdict(float)
    cache = Counter()
    for doc in docs:
        spans = doc["spans"]
        durations = [s.get("busy", (s["end"] or s["start"]) - s["start"]) for s in spans]
        covered = [0.0] * len(spans)
        for span, duration in zip(spans, durations):
            if span["parent"] is not None:
                covered[span["parent"]] += duration
        for span, duration, child_time in zip(spans, durations, covered):
            own = duration - child_time
            name = _metric_name(span["name"])
            out[f"{name}.s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name}.items"] += span.get("items", 0)
            out[f"{name}.bytes"] += span.get("bytes", 0)
            out[f"{name.partition('.')[0]}.self_s"] += own
            if "suite" in span:  # a suite's whole duration, its callees included
                out[f"verifiers.{span['suite']}.s"] += duration
                out[f"verifiers.{span['suite']}.n_checked"] += span["n_checked"]
            if "out_bytes" in span:
                out["dimsets.build_table.out_mib"] += span["out_bytes"] / 2**20
                builds[span["n"]] += own
        # cache decision of this command, from which of load, build and save ran
        ran = {span["name"] for span in spans}
        if "dimsets.build_table" in ran:
            cache["miss" if "storage.save_table" in ran else "bypass"] += 1
        elif "storage.load_table" in ran:
            cache["hit"] += 1
    for decision in ("hit", "miss", "bypass"):
        out[f"cli.cache.{decision}"] = cache[decision]
    decided = sum(cache.values())
    out["cli.cache.hit_ratio"] = cache["hit"] / decided if decided else 0.0
    # growth order of the recurrence between the smallest and largest build
    if len(builds) >= 2:
        lo, hi = min(builds), max(builds)
        if builds[lo] > 0 and lo > 0:
            out["dimsets.build_table.growth_exp"] = math.log(builds[hi] / builds[lo]) / math.log(
                hi / lo
            )
    return dict(out)


def main(argv: list[str]) -> int:
    spans_out, cmd = argv[0], int(argv[1])
    tracer = Tracer(cmd)
    cli = install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"cmd": cmd, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
