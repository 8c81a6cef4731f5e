"""The benchmark tracer still finds every starshift name it wraps.

`starbench/tracing.py` looks its functions and methods up by name with no
default, so renaming or deleting one of them in `src/` breaks a traced
benchmark run with an `AttributeError`.  Installing the tracer in a fresh
process catches that here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_sources():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "starbench"), str(ROOT / "src")]))
    result = subprocess.run(
        [sys.executable, "-c", "import starshift.cli, tracing; tracing.Tracer().install()"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
