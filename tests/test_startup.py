"""Start-up: a command runs only the starshift modules it calls, and numpy
loads at the first array.

Each check runs in a fresh interpreter, since the test process itself has
every module loaded.  `import starshift` registers numpy and the eight
submodules in `sys.modules` as lazy modules; a lazy module's class changes
to `types.ModuleType` when its code runs, so reading the class tells whether
it ran without running it (any other attribute read would).
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
SUBMODULES = ("budget", "words", "gf2poly", "dictionary", "ledrappier", "starcomm", "cylinder", "matrixmodel")
# Prints the submodules whose code has run; a submodule missing from sys.modules is a KeyError.
RAN = (
    "import json, sys, types\n"
    "ran = [m for m in %r if type(sys.modules['starshift.' + m]) is types.ModuleType]\n" % (SUBMODULES,)
)
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


def test_import_alone_runs_no_submodule():
    assert run_fresh("import starshift\n" + RAN + "print(json.dumps(ran))") == []


def ran_after(argv):
    code = (
        "import contextlib, io\n"
        "from starshift import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(%r)\n" % (argv,) + RAN + "print(json.dumps([rc, ran, %r in sys.modules]))\n" % CORE
    )
    return run_fresh(code)


# Every command parses its input with these; the others run only when a command calls them.
COMMON = ["budget", "words", "gf2poly", "dictionary"]


@pytest.mark.parametrize(
    "argv, more",
    [
        (["classify", "5", "--json"], []),
        (["kernel", "--poly", "1+t^4+t^9", "--json"], []),
        (["kernel", "--dict", "01,10", "--json"], []),
        (["ledrappier", "1101", "--json"], ["ledrappier"]),
        (["analyze", "01,10", "--json"], ["starcomm"]),
        # Not linear: decided on the rule alone, with no polynomial to certify.
        (["analyze", "00,11", "--json"], []),
        (["certify", "t", "1+t+t^2", "--json"], ["starcomm"]),
        (["verify", "t", "1+t", "--level", "7", "--json"], ["starcomm", "cylinder", "matrixmodel"]),
    ],
    ids=["classify", "kernel-poly", "kernel-dict", "ledrappier", "analyze-linear", "analyze-affine", "certify", "verify"],
)
def test_each_command_runs_only_the_modules_it_calls(argv, more):
    rc, ran, core = ran_after(argv)
    assert (rc, sorted(ran), core) == (0, sorted(COMMON + more), argv[0] == "verify")


# `__all__` as the package listed it when it imported every submodule at once,
# grouped by the module that defines each name.
DEFINED_IN = {
    "budget": "FrameTooLarge KernelTooLarge LevelTooLarge OverBudget PatchTooLarge WindowTooLarge WindowTooSmall",
    "cylinder": "CylinderFunction NotAFrame NumeratorOverflow QuadScalar alpha basis expectation inner_product"
    " refine_frame standard_frame transfer verify_frame",
    "dictionary": "FILTERS ClassificationRecord Dictionary NotProgressive WindowMap WordTooShort apply_window_map"
    " classify_dictionary enumerate_dictionaries kernel_elements",
    "gf2poly": "Factorization Gf2Poly ZeroPolynomial poly_factor poly_gcd recurrence_kernel",
    "ledrappier": "BASIC_BLOCKS LEDRAPPIER TrianglePatch complete_patch conjugate_vertical stack_orbit",
    "matrixmodel": "BumpReport DefectReport LevelOperator LevelTooSmall NoSeparation RelationReport"
    " annihilating_bump expectation_defect isometry_matrix verify_relations",
    "starcomm": "DynamicalSystem FiniteMapPair IndependenceProfile InvalidSystem MinimalityResult MonoidElement"
    " NonCommutingMaps StarDecision SystemCertificate TopFreeResult certify_system independence_profile"
    " is_minimal is_topologically_free star_commute_finite star_commute_windows star_commutes_on_kernel",
    "words": "PeriodicSeq Word",
}
PUBLIC = sorted(name for names in DEFINED_IN.values() for name in names.split())


def test_public_names_resolve_to_their_modules():
    code = (
        "import json, sys, types\n"
        "import starshift\n"
        "defined_in = %r\n"
        "def wrong(m, n):\n"
        "    obj = getattr(starshift, n)\n"
        "    made_there = not isinstance(obj, (type, types.FunctionType)) or obj.__module__ == 'starshift.' + m\n"
        "    return obj is not vars(sys.modules['starshift.' + m])[n] or not made_there\n"
        "wrong = [n for m, names in defined_in.items() for n in names.split() if wrong(m, n)]\n"
        "star = {}\n"
        "exec('from starshift import *', star)\n"
        "star_ok = all(star[n] is getattr(starshift, n) for n in starshift.__all__)\n"
        "listed = set(dir(starshift))\n"
        "try:\n"
        "    starshift.no_such_name\n"
        "    message = None\n"
        "except AttributeError as exc:\n"
        "    message = str(exc)\n"
        "print(json.dumps([starshift.__all__, wrong, star_ok, sorted(set(starshift.__all__) - listed), message]))\n"
    ) % (DEFINED_IN,)
    assert len(PUBLIC) == 70
    assert run_fresh(code) == [PUBLIC, [], True, [], "module 'starshift' has no attribute 'no_such_name'"]
