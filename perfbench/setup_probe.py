"""What every ``llc`` call pays before its real work: import the package
and its CLI, parse the project configuration, build the design report.

    PYTHONPATH=src python3 perfbench/setup_probe.py PROJECT.json

``run.py`` times this script as a whole process for ``setup_s``.
"""

import sys

import llckit.cli  # noqa: F401  (the ``llc`` entry point imports it)
from llckit.config import load_config
from workloads import design_report

design_report(load_config(sys.argv[1]))
