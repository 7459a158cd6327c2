"""Shared fixtures for tests that start llckit in a separate process."""

import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest


@pytest.fixture
def run_python():
    """Run ``python ARGS...`` in a fresh process that imports the llckit
    under test; return the CompletedProcess.

    The child's PYTHONPATH is made absolute and led by the directory holding
    the llckit this process imports, so it runs the code under test whatever
    its working directory.
    """
    package_root = str(Path(find_spec("llckit").origin).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = [package_root] + [os.path.abspath(p) for p in inherited if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=env)
    return run


@pytest.fixture
def run_llc(run_python):
    """Run ``python -m llckit`` in a fresh process; return the CompletedProcess.

    The name ``llc`` is never looked up on PATH: other toolchains ship an
    ``llc`` too (LLVM's static compiler).
    """
    def run(*args: str) -> subprocess.CompletedProcess:
        return run_python("-m", "llckit", *args)
    return run
