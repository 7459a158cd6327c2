"""JIT plumbing for the hot integration kernels.

The switched-circuit integrator spends nearly all of its time stepping a
four-state ODE a few thousand times per switching period.  When numba is
importable those kernels are compiled with ``@njit``; otherwise, or when the
environment variable ``LLCKIT_JIT`` is set to ``0``/``off``/``false``, the
same functions run as plain Python over Python floats.  Both paths execute
the identical arithmetic in the identical order, so results match bit for
bit (no fastmath, no reassociation).

``benchmarks/bench_sim.py`` times the two paths against each other.
"""

from __future__ import annotations

import os

_FALSEY = {"0", "off", "false", "no"}


def _jit_requested() -> bool:
    return os.environ.get("LLCKIT_JIT", "1").strip().lower() not in _FALSEY


try:
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via LLCKIT_JIT=0 instead
    numba = None
    NUMBA_AVAILABLE = False

JIT_ENABLED = NUMBA_AVAILABLE and _jit_requested()

# Determinism matters more than the last few percent of speed here: cache the
# compilation, keep IEEE semantics (no fastmath), stay single threaded.
NJIT_OPTS = {"cache": True, "fastmath": False, "nogil": True}


def maybe_njit(func):
    """Compile ``func`` with numba when enabled, else return it unchanged."""
    if JIT_ENABLED:
        return numba.njit(**NJIT_OPTS)(func)
    return func
