"""Spans and counters recorded around the program's public functions.

The program is not edited: ``instrument`` replaces module attributes with
timing wrappers through a ``Patcher``, whose ``remove`` puts the originals
back.  Calls
inside the package look their callees up as module globals at call time,
so every binding of a wrapped function is replaced, including names a
module imported from another (``from .moments import validate_adiabatic``).
"""

from __future__ import annotations

import inspect
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at top level
    pass_id: int


def _patch_all(modules, original, replacement) -> list[tuple[object, str]]:
    """Rebind every module attribute that is ``original``; returns the sites."""
    sites = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                sites.append((mod, attr))
    return sites


class Patcher:
    """Wraps functions at every binding in the given modules, and undoes it."""

    def __init__(self, modules):
        self.modules = tuple(modules)
        self._undo: list[tuple[object, str, object]] = []

    def wrap_function(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        replacement = make(original)
        for mod, name in _patch_all(self.modules, original, replacement):
            self._undo.append((mod, name, original))

    def wrap_method(self, cls, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


@dataclass
class Tracer:
    """In-memory span log plus exact per-pass counters."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(Counter))
    pass_id: int = -1
    _stack: list = field(default_factory=list)

    def wrapper(self, label: Callable, tally: Callable | None = None):
        """Decorator factory: span named ``label(args, kwargs)``.

        ``tally(args, kwargs, result)`` returns extra counts for the span's
        name (computed sizes, step counts); every call counts one ``calls``.
        """
        def make(fn):
            def traced(*args, **kwargs):
                name = label(args, kwargs)
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                self.spans.append(None)
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = Span(name, start, end, parent,
                                             self.pass_id)
                counter = self.counts[self.pass_id]
                counter[name + ".calls"] += 1
                if tally is not None:
                    for key, value in tally(args, kwargs, result).items():
                        counter[f"{name}.{key}"] += value
                return result
            traced.__wrapped__ = fn
            return traced
        return make


def self_times(spans: list[Span], pass_id: int) -> tuple[dict, float]:
    """Self time per span name in one pass, and its top-level span time.

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.pass_id == pass_id and s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    own = defaultdict(float)
    top = 0.0
    for i, s in enumerate(spans):
        if s.pass_id != pass_id:
            continue
        own[s.name] += (s.end - s.start) - child_time[i]
        if s.parent < 0:
            top += s.end - s.start
    return dict(own), top


def integrate_steps(duration: float, dt: float) -> int:
    """RK4 steps ``moments.integrate`` takes for this duration and dt."""
    return max(1, int(math.ceil(duration / dt - 1e-12)))


def _named(name: str) -> Callable:
    return lambda args, kwargs: name


def instrument(tracer: Tracer, patcher: Patcher, pkg) -> None:
    """Wrap every public function of every program module in a span.

    Layers are the modules of ``pkg`` (the ``magnomech`` package), and a
    span is named ``<module>.<function>``, with these exceptions: the
    squeeze and swap propagators are ``propagators.squeeze`` and
    ``propagators.swap``; the pair exponential is ``fock.pair_exp_ket`` or
    ``fock.pair_exp_dm`` by its argument; ``moments.integrate`` is split on
    whether the drift is constant.  ``FockDensityMatrix.__init__`` is
    ``fock.dm_init``.
    """
    fock = pkg.fock

    def integrate_label(args, kwargs):
        dd = args[1] if len(args) > 1 else kwargs["dd"]
        return "moments.integrate.static" if dd.is_static \
            else "moments.integrate.timedep"

    def integrate_tally(args, kwargs, result):
        duration = args[2] if len(args) > 2 else kwargs["duration"]
        dt = args[3] if len(args) > 3 else kwargs["dt"]
        return {"steps": integrate_steps(duration, dt)}

    special = {
        ("propagators", "apply_stokes_squeeze"):
            tracer.wrapper(_named("propagators.squeeze")),
        ("propagators", "apply_antistokes_swap"):
            tracer.wrapper(_named("propagators.swap")),
        ("fock", "apply_two_mode_exponential"): tracer.wrapper(
            lambda args, kwargs: "fock.pair_exp_ket"
            if isinstance(args[0], fock.FockKet) else "fock.pair_exp_dm"),
        ("metrics", "log_negativity_fock"): tracer.wrapper(
            _named("metrics.log_negativity_fock"),
            lambda args, kwargs, result: {"elems": args[0].dims.size ** 2}),
        ("moments", "integrate"): tracer.wrapper(integrate_label,
                                                 integrate_tally),
    }
    for mod in (fock, pkg.propagators, pkg.channels, pkg.metrics, pkg.moments,
                pkg.protocol, pkg.cli):
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(value) \
                    or value.__module__ != mod.__name__:
                continue
            make = special.pop((layer, attr), None) \
                or tracer.wrapper(_named(f"{layer}.{attr}"))
            patcher.wrap_function(mod, attr, make)
    if special:
        raise RuntimeError(f"program functions not found: {sorted(special)}")
    patcher.wrap_method(fock.FockDensityMatrix, "__init__", tracer.wrapper(
        _named("fock.dm_init"),
        lambda args, kwargs, result: {"bytes": args[0].matrix.nbytes}))
