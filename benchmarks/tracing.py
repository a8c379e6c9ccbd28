"""Layer-boundary tracing of the ``rwrs`` package, installed from outside it.

``Tracer.install`` replaces every public function of each layer module
(the names in the module's ``__all__``, or its public functions when it
has none) with a timing wrapper, in every ``rwrs`` module namespace that
imported it, so calls between layers are seen at their boundary and a
new public function is traced without edits here.  Public methods of
public classes are wrapped on the class itself, which keeps
``isinstance`` checks working.  Private helpers are not wrapped: their
time counts towards the public function that called them.

Spans are kept in memory.  Within one thread spans nest strictly, so a
span's self time is its duration minus the sum of its direct children's
durations.  Work counts are computed from call arguments at the same
boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from typing import Callable

import numpy as np

LAYERS = ("streams", "fgn", "stable", "local_times", "schema", "limit", "stats", "experiments")

COUNTS = (
    "fgn.steps",
    "fgn.slow_fft_calls",
    "stable.sites_hashed",
    "stable.stable_draws",
    "local_times.steps",
    "streams.rngs",
    "streams.tasks",
)

# numpy's FFT handles orders whose prime factors are all small with fast
# radix kernels; a larger prime factor makes it fall back to a slow path
_FAST_FFT_PRIME = 11

# fields of a span record; records are lists so that recording stays cheap
LAYER, NAME, TRACE, PARENT, START, END, CHILD_S = range(7)


def largest_prime_factor(value: int) -> int:
    best, p = 1, 2
    while p * p <= value:
        while value % p == 0:
            best, value = p, value // p
        p += 1
    return max(best, value)


def _count_fgn(counts, arg):
    n = int(arg("n"))
    counts["fgn.steps"] += n
    if float(arg("hurst")) != 0.5 and largest_prime_factor(2 * n) > _FAST_FFT_PRIME:
        counts["fgn.slow_fft_calls"] += 1


def _count_sites(counts, arg):
    counts["stable.sites_hashed"] += int(np.size(arg("sites")))


def _count_stable(counts, arg):
    size = arg("size")
    counts["stable.stable_draws"] += 1 if size is None else int(np.prod(size))


def _count_walk_steps(counts, arg):
    # positions 0..n of the walk are mapped to sites and counted
    horizon = arg("n")
    if horizon is None:
        horizon = arg("path").n
    counts["local_times.steps"] += int(horizon) + 1


def _count_profile_steps(counts, arg):
    counts["local_times.steps"] += max(int(h) for h in arg("horizons")) + 1


def _count_rng(counts, arg):
    counts["streams.rngs"] += 1


def _count_tasks(counts, arg):
    counts["streams.tasks"] += int(arg("count"))


# qualified name -> counter reading the call's arguments by parameter name
_COUNTERS: dict[str, Callable] = {
    "fgn.sample_fgn": _count_fgn,
    "stable.Scenery.values_at": _count_sites,
    "stable.sample_stable": _count_stable,
    "local_times.reward_series": _count_walk_steps,
    "local_times.local_times": _count_walk_steps,
    "local_times.local_time_profiles": _count_profile_steps,
    "streams.spawn_rng": _count_rng,
    "streams.replicate_map": _count_tasks,
}


def _argument_reader(fn: Callable) -> Callable:
    """``reader(args, kwargs)(name)``: a call's argument, or its default, by name."""
    params = inspect.signature(fn).parameters
    position = {name: i for i, name in enumerate(params)}
    default = {name: p.default for name, p in params.items()}

    def reader(args, kwargs):
        def arg(name):
            if name in kwargs:
                return kwargs[name]
            i = position[name]
            return args[i] if i < len(args) else default[name]

        return arg

    return reader


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTS}
        self.trace = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        index = self._open(layer, name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, layer: str, name: str) -> int:
        stack = self._stack
        self.spans.append([layer, name, self.trace, stack[-1] if stack else -1, 0.0, 0.0, 0.0])
        index = len(self.spans) - 1
        stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        record = self.spans[index]
        record[END] = end
        self._stack.pop()
        if record[PARENT] >= 0:
            self.spans[record[PARENT]][CHILD_S] += end - record[START]

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(f"{layer}.{name}")
        reader = _argument_reader(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self.counts, reader(args, kwargs))
            index = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self, layers=LAYERS, only: set[str] | None = None) -> None:
        """Wrap the public names of ``layers`` (or just the qualified
        names in ``only``) wherever an ``rwrs`` module holds them."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == "rwrs" or key.startswith("rwrs."))]
        for layer in layers:
            module = sys.modules[f"rwrs.{layer}"]
            for name in _public_names(module):
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        qualified = f"{name}.{attr}"
                        if attr.startswith("_") or not inspect.isfunction(member):
                            continue
                        if only is None or f"{layer}.{qualified}" in only:
                            self._patch(obj, attr, self.wrap(layer, qualified, member))
                elif inspect.isfunction(obj) and (only is None or f"{layer}.{name}" in only):
                    wrapper = self.wrap(layer, name, obj)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patch(namespace, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def total_s(self, layer: str, name: str) -> float:
        """Summed duration of the spans with this layer and name."""
        return sum(r[END] - r[START] for r in self.spans if r[LAYER] == layer and r[NAME] == name)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self time (duration minus direct children) and span count per layer."""
        totals = {}
        for record in self.spans:
            entry = totals.setdefault(record[LAYER], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += record[END] - record[START] - record[CHILD_S]
            entry["calls"] += 1
        return totals

    def span_records(self) -> list[list]:
        return [[r[TRACE], r[LAYER], r[NAME], r[PARENT], r[START], r[END]] for r in self.spans]


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [key for key, value in vars(module).items()
                 if not key.startswith("_") and inspect.isfunction(value)
                 and value.__module__ == module.__name__]
    return list(names)
