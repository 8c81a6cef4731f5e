"""Start-up: numpy loads at the first array, not at `import starshift`.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded.  `numpy` is in `sys.modules` from the start as a lazy module;
`numpy._core.multiarray` appears only once numpy's own code has run.
"""

import json
import os
import subprocess
import sys

import pytest

import starshift
from starshift.dictionary import Dictionary, progressive_mask

SRC = os.path.dirname(os.path.dirname(starshift.__file__))
CORE = "numpy._core.multiarray"
# The nonlinear progressive dictionary of window 9 with rule x0 x1 + x8: the
# completion of an 8-symbol prefix is 1 unless it starts with 11.
NONLINEAR_9 = str(Dictionary(9, progressive_mask(9, sum(1 << a for a in range(256) if a >> 6 != 3))))


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def core_loaded_after(argv):
    code = (
        "import contextlib, io, json, sys\n"
        "from starshift import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(%r)\n"
        "print(json.dumps([rc, %r in sys.modules]))\n" % (argv, CORE)
    )
    return run_fresh(code)


def test_import_alone_leaves_numpy_unloaded():
    assert run_fresh("import json, sys, starshift\nprint(json.dumps(%r in sys.modules))" % CORE) is False


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "5", "--json"],
        ["kernel", "--poly", "1+t^4+t^9", "--json"],
        ["certify", "t", "1+t+t^2", "--json"],
        ["ledrappier", "1101", "--json"],
        ["kernel", "--dict", "01,10", "--json"],
        ["kernel", "--dict", "00,11", "--json"],
        ["analyze", "01,10", "--json"],
        ["analyze", "00,11", "--json"],
        ["analyze", NONLINEAR_9, "--json"],
    ],
    ids=[
        "classify",
        "kernel",
        "certify",
        "ledrappier",
        "kernel-dict-01,10",
        "kernel-dict-00,11",
        "analyze-01,10",
        "analyze-00,11",
        "analyze-nonlinear-9",
    ],
)
def test_integer_commands_never_load_numpy(argv):
    assert core_loaded_after(argv) == [0, False]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "t", "1+t", "--level", "7", "--json"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_array_commands_load_numpy(argv):
    assert core_loaded_after(argv) == [0, True]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "t", "--level", "40"],
        ["verify", "t", "1+t+t^6", "--level", "12"],
        ["analyze", "0" * 25],
        ["kernel", "--poly", "1+t^13"],
        ["classify", "12"],
        ["ledrappier", "0" * 8192],
        ["kernel", "--poly", "t^65537"],
    ],
    ids=["verify-level", "verify-frame", "analyze-window", "kernel-degree", "classify", "ledrappier", "kernel-exponent"],
)
def test_refusals_read_no_array(argv):
    """Admission is predicted from the input alone: a refused call exits 2 before numpy loads."""
    assert core_loaded_after(argv) == [2, False]


def test_numpy_imported_first_is_used_as_is():
    code = (
        "import json, sys, types\n"
        "import numpy\n"
        "import starshift.dictionary\n"
        "np = starshift.dictionary.np\n"
        "print(json.dumps([np is sys.modules['numpy'], np is numpy, type(np) is types.ModuleType]))\n"
    )
    assert run_fresh(code) == [True, True, True]


def test_missing_numpy_fails_the_import_as_before():
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None  # what `import numpy` sees as not installed\n"
        "try:\n"
        "    import starshift\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(json.dumps(exc.name))\n"
    )
    assert run_fresh(code) == "numpy"
