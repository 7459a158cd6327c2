"""Every module of ``src/llckit`` stays within its token budget.

Compiling a module past ``COMPILE_TOKENS`` tokens was seen to cost about
0.5 MB more memory, which every process that compiles llckit from source
pays.  The tokens are counted by ``tools/src_size.py``'s own ``measure``.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_src_size():
    spec = importlib.util.spec_from_file_location(
        "src_size", ROOT / "tools" / "src_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_size = _load_src_size()


MODULES = sorted((ROOT / "src" / "llckit").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_within_the_token_budget(path):
    _, tokens = src_size.measure(path)
    assert tokens <= src_size.COMPILE_TOKENS, f"{path.name}: {tokens} tokens"
