"""Spans and counters around the calls into llckit's public functions.

The spans are recorded from outside the package: :meth:`Tracer.install`
replaces each traced function with a timing wrapper at every place the
package binds it (``from .steady_state import find_pop`` in both
``control`` and ``cli`` makes two bindings of one function), and
:meth:`Tracer.uninstall` puts the originals back.  Spans are aggregated in
memory as they close; nothing is written while a pass runs.

Self time is a span minus the spans nested inside it, so each span also
adds its duration to every distinct span name open above it
(:attr:`Tracer.within`).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_clock = time.perf_counter


class NullTracer:
    """Stand-in for untraced passes: spans and counters cost nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, key, n=1):
        pass


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)  # span name -> completed calls
        self.busy = defaultdict(float)  # span name -> inclusive seconds
        # (ancestor span name, span name) -> seconds / calls of the inner
        # span while the ancestor was open
        self.within = defaultdict(float)
        self.within_calls = defaultdict(int)
        # layer -> seconds in spans not nested inside a span of that layer
        self.layer_busy = defaultdict(float)
        self.counts = defaultdict(int)  # work counters
        self._stack: list[str] = []
        self._patches: list = []

    def add(self, key, n=1):
        self.counts[key] += n

    def _close(self, name: str, layer: str, dt: float) -> None:
        stack = self._stack
        stack.pop()
        self.calls[name] += 1
        self.busy[name] += dt
        outermost = True
        for anc in set(stack):
            self.within[anc, name] += dt
            self.within_calls[anc, name] += 1
            if anc.startswith(layer):
                outermost = False
        if outermost:
            self.layer_busy[layer] += dt

    @contextmanager
    def span(self, name: str):
        layer = name.split(".", 1)[0] + "."
        self._stack.append(name)
        t0 = _clock()
        try:
            yield
        finally:
            self._close(name, layer, _clock() - t0)

    def wrap(self, fn, name: str, after=None, name_of=None):
        """Time each call of ``fn`` as span ``name``.

        ``name_of(args, kwargs)`` picks the span name per call instead;
        ``after(args, kwargs, result)`` reads counters off a call that
        returned.  A call that raises counts under ``<name>.failed``.
        """
        def traced(*args, **kwargs):
            nm = name if name_of is None else name_of(args, kwargs)
            layer = nm.split(".", 1)[0] + "."
            self._stack.append(nm)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[nm + ".failed"] += 1
                raise
            finally:
                self._close(nm, layer, _clock() - t0)
            if after is not None:
                after(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    # -- patching -----------------------------------------------------------

    def _patch_function(self, orig, wrapped) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "llckit" or k.startswith("llckit.")]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def _patch_attr(self, owner, key, wrapped) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapped)

    def install(self) -> None:
        # import_module, because the package's ``gain`` function hides the
        # ``llckit.gain`` submodule from ``from llckit import gain``
        (cli, config, control, gain, kernels, sim, steady_state, svgplot,
         synthesis) = (importlib.import_module("llckit." + m) for m in (
             "cli", "config", "control", "gain", "kernels", "sim",
             "steady_state", "svgplot", "synthesis"))
        if self._patches:
            raise RuntimeError("tracer already installed")
        fn = self._patch_function
        fn(kernels.integrate_segment,
           self.wrap(kernels.integrate_segment, "kernels.integrate_segment",
                     after=self._after_segment))
        fn(steady_state.find_pop,
           self.wrap(steady_state.find_pop, "", after=self._after_pop,
                     name_of=_pop_span))
        for mod, names in ((control, ("run_load_step", "run_closed_loop")),
                           (gain, ("gain_magnitude", "peak_gain",
                                   "solve_frequency")),
                           (synthesis, ("search_design_point",
                                        "check_feasibility")),
                           (svgplot, ("render_line_plot",)),
                           (config, ("load_config",))):
            layer = mod.__name__.rsplit(".", 1)[1]
            for nm in names:
                orig = getattr(mod, nm)
                fn(orig, self.wrap(orig, f"{layer}.{nm}"))

        drv = sim.PeriodDriver
        self._patch_attr(drv, "advance_period",
                         self.wrap(drv.advance_period, "sim.advance_period"))
        self._patch_attr(drv, "result",
                         self.wrap(drv.result, "sim.result",
                                   after=self._after_result))
        wf = sim.Waveform
        self._patch_attr(wf, "to_csv",
                         self.wrap(wf.to_csv, "sim.waveform.to_csv",
                                   after=self._after_to_csv))
        self._patch_attr(wf, "from_csv", classmethod(
            self.wrap(wf.__dict__["from_csv"].__func__,
                      "sim.waveform.from_csv")))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- counters read off arguments and results ----------------------------

    def _after_segment(self, args, kwargs, out) -> None:
        # integrate_segment(iLr, vCr, iLm, vOut, t0, t1, ..., dt_max, ...)
        # is always called positionally by the period driver
        span = args[5] - args[4]
        if span > 0.0:
            self.counts["kernels.steps"] += math.ceil(span / args[18])
        self.counts["kernels.events"] += out[2]

    def _after_pop(self, args, kwargs, out) -> None:
        self.counts[f"steady_state.{out.method}.cycles"] += out.cycles

    def _after_result(self, args, kwargs, out) -> None:
        for ev in out.events:
            self.counts["sim.events." + ev.kind] += 1

    def _after_to_csv(self, args, kwargs, out) -> None:
        self.counts["sim.waveform.rows"] += int(args[0].t.size)
        self.counts["sim.waveform.bytes"] += os.path.getsize(args[1])


def _pop_span(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "shooting")
    return f"steady_state.{method}"
