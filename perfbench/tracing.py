"""Times and counts at ll_lab's public function boundaries, for traced runs.

``Tracer.install`` rebinds the public names that the program's own modules
call (for example ``ll_lab.cli.track_modulation``) to timing wrappers, and
wraps ``numpy.fft`` to count the transforms made inside ``evolve``.  The
figures are kept in memory as per-name totals and written once by ``dump``.
The tracer runs only in traced runs; end-to-end figures come from untraced
ones.
"""

from __future__ import annotations

import functools
import json
import threading
import time

import numpy as np


class Tracer:
    def __init__(self) -> None:
        # "<name>.s" and "<name>.calls" per timed name, plus plain counts
        self.totals: dict[str, float] = {}
        self._lock = threading.Lock()
        # whether the current thread is inside evolve (batch jobs run on threads)
        self._tl = threading.local()

    def count(self, name: str, k: float = 1) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0) + k

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn, adding its duration to name's totals; returns its result."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            with self._lock:
                self.totals[name + ".s"] = self.totals.get(name + ".s", 0.0) + elapsed
                self.totals[name + ".calls"] = self.totals.get(name + ".calls", 0) + 1

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- wrappers ---------------------------------------------------------

    def _fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, n=None, *args, **kwargs):
            if getattr(self._tl, "in_evolve", 0):
                self.count("dynamics.fft_calls")
                self.count("dynamics.fft_points", n if n is not None else np.shape(a)[-1])
            return fn(a, n, *args, **kwargs)
        return wrapper

    def _evolve(self, fn):
        @functools.wraps(fn)
        def wrapper(state, config, hooks=()):
            marks: list[float] = []

            def mark(t, _snap):
                marks.append(t)

            self._tl.in_evolve = getattr(self._tl, "in_evolve", 0) + 1
            try:
                traj = self.call("dynamics.evolve", fn, state, config, (*hooks, mark))
            finally:
                self._tl.in_evolve -= 1
            self.count("dynamics.rk4_steps", int(round(marks[-1] / config.dt)))
            return traj
        return wrapper

    def _track(self, fn):
        @functools.wraps(fn)
        def wrapper(traj, guess, *args, **kwargs):
            self.count("modulation.snapshots", len(traj))
            return self.call("modulation.track_modulation", fn, traj, guess, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        import numpy.fft as npfft
        from ll_lab import cli, dynamics, modulation, scenarios

        for name in ("rfft", "irfft", "fft", "ifft"):
            setattr(npfft, name, self._fft(getattr(npfft, name)))
        evolve = self._evolve(dynamics.evolve)
        for mod in (dynamics, scenarios, cli):
            mod.evolve = evolve
        track = self._track(modulation.track_modulation)
        scenarios.track_modulation = track
        cli.track_modulation = track
        modulation.negative_mode = self._timed("modulation.negative_mode",
                                               modulation.negative_mode)
        modulation.ChiCache.mode_for = self._counted("modulation.chi_lookups",
                                                     modulation.ChiCache.mode_for)

    def dump(self, path) -> None:
        with self._lock, open(path, "w") as fh:
            json.dump(self.totals, fh, indent=1, sort_keys=True)
