"""Build facts about the integration kernel, for benchmark records.

The kernel runs as plain Python over Python floats; nothing is compiled.
``NUMBA_AVAILABLE`` says whether numba could be imported here and
``JIT_ENABLED`` is always False, so that an environment record names the
arm it timed.
"""

from __future__ import annotations

from importlib.util import find_spec

NUMBA_AVAILABLE = find_spec("numba") is not None
JIT_ENABLED = False
