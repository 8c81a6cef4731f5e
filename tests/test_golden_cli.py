"""Byte-identity of the command-line interface on a fixed set of calls.

`golden_cli.json` maps each call, its arguments joined by spaces, to the
first 16 hex digits of the sha256 of its exit code, stdout and stderr,
run in process through `cli.main`.  Any change to what one of these calls
prints or returns fails here.  After an intended output change, regenerate
the file from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py --write

which prints each call it adds, removes or re-digests against the file
it replaces, and say in the change which calls moved and why.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import random
import sys

import pytest

from starshift.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

LOW_POLYS = ("t", "1+t", "t^2", "1+t^2", "t+t^2", "1+t+t^2")


def _poly_text(mask: int) -> str:
    terms = ["1" if i == 0 else "t" if i == 1 else "t^%d" % i for i in range(mask.bit_length()) if mask >> i & 1]
    return "+".join(terms)


def _progressive_members(n: int, choice: int) -> str:
    """The dictionary of window n completing prefix a with bit a of `choice`."""
    words = sorted((a << 1) | ((choice >> a) & 1) for a in range(1 << (n - 1)))
    return ",".join(format(w, "0%db" % n) for w in words)


def calls() -> list:
    """Every call of the golden set, as argument lists."""
    out = []
    for size in (1, 2, 3):
        for polys in itertools.combinations(LOW_POLYS, size):
            for level in (6, 7, 8):
                out.append(["verify", *polys, "--level", str(level), "--json"])
            out.append(["verify", *polys, "--level", "7"])
    out += [
        ["verify", "t", "1+t+t^4", "--level", "8", "--json"],
        ["verify", "t", "1+t+t^6", "--level", "12", "--json"],
        ["verify", "t", "--level", "2"],
        ["verify", "t", "--level", "40"],
    ]
    for mask in range(2, 1 << 9):
        out.append(["kernel", "--poly", _poly_text(mask), "--json"])
    for mask in range(2, 1 << 4):
        out.append(["kernel", "--poly", _poly_text(mask)])
    for n in (2, 3, 4):
        for choice in range(1 << (1 << (n - 1))):
            members = _progressive_members(n, choice)
            out.append(["analyze", members, "--json"])
            out.append(["kernel", "--dict", members])
            if n < 4:
                out.append(["analyze", members])
    # Windows over the 2^24-entry table budget are refused before any table is built.
    for window in (25, 30):
        out.append(["analyze", "0" * window])
        out.append(["kernel", "--dict", "1" * window])
    # Every window the listing budget admits (window 11 lists 2^20 rows' worth of words).
    for n in range(2, 12):
        out.append(["classify", str(n), "--json"])
        out.append(["classify", str(n)])
    out += [
        ["certify", "t", "1+t"],
        ["certify", "t", "t+t^2", "--json"],
        ["certify", "t", "1+t", "1+t+t^2", "--json"],
        ["certify", "1+t+t^3", "t^2"],
        ["ledrappier", "1101"],
        ["ledrappier", "1101", "--steps", "2", "--json"],
        ["ledrappier", "110100", "--steps", "2"],
        ["ledrappier", "1", "--json"],
        ["ledrappier", "10", "--steps", "0", "--json"],
        ["ledrappier", "1101", "--steps", "9"],
    ]
    return out


def digest(argv) -> str:
    """The first 16 hex digits of the sha256 of (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_cli_output_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    table = {" ".join(argv): argv for argv in calls()}
    assert sorted(table) == sorted(golden)
    moved = [key for key, argv in table.items() if digest(argv) != golden[key]]
    assert moved == []


# sha256 of the stdout of `verify t 1+t^2+t^5 --level 10 --json` (exit 0, no stderr),
# as the int64 frame Grams printed it.
DEGREE_FIVE_SHA256 = "009729283c6971d16c2df85ae8b8566d7e2856aed46277afd44263f7b6f90f35"


def test_degree_five_verify_is_byte_identical():
    """A degree-5 generator, at its smallest level, prints the same report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "t", "1+t^2+t^5", "--level", "10", "--json"])
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == DEGREE_FIVE_SHA256


def _linear_members(mask: int) -> str:
    """Members of the window-(deg + 1) dictionary whose map is x -> p(shift) x, p = mask."""
    n = mask.bit_length()
    taps = [i for i in range(n) if mask >> i & 1]
    words = (v for v in range(1 << n) if sum(v >> (n - 1 - i) for i in taps) & 1)
    return ",".join(format(v, "0%db" % n) for v in words)


# sha256 of the stdout (exit 0, no stderr) of calls at the size of the `sequences`
# benchmark workload, far above the golden set's degree 8 and window 4.
WORKLOAD_SHA256 = {
    # Primitive, degree 9: 512 elements, 266 kB of JSON.
    ("kernel", "--poly", "1+t^4+t^9", "--json"):
        "7ddd55f4298bc83a4223deee632858e4485b64c62ce31e81240a10638ffa29cd",
    # The same kernel through its window-10 dictionary.
    ("kernel", "--dict", _linear_members(0b1000010001), "--json"):
        "914bc6bb41ef82006d6fdd5bf9815d36a669ea14d02155606ec08ac71acf2c26",
    # Window 9, primitive 1+t^2+t^3+t^4+t^8: every element purely periodic.
    ("analyze", _linear_members(0b100011101), "--json"):
        "d23f12d8213260da9e66e3550e7ce7e024648bef3afdc8ffd251f5aea994092d",
    # Window 9, t(1+t+t^7): half the elements have a one-symbol tail.
    ("analyze", _linear_members(0b10000011 << 1), "--json"):
        "c086dbb919eeb1357e183acfe06a171f57e262b5c06a20990661da8ad808e628",
    ("ledrappier", format(random.Random(500).getrandbits(500), "0500b"), "--json"):
        "fe193509f0a5ac7302187a7ae26d65f4571e029b90a7f364c0ad7a629cb4ea21",
}


@pytest.mark.parametrize("argv", list(WORKLOAD_SHA256), ids=lambda argv: " ".join(argv)[:30])
def test_workload_scale_output_is_byte_identical(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == WORKLOAD_SHA256[argv]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    before = json.loads(GOLDEN.read_text("utf-8")) if GOLDEN.exists() else {}
    table = {" ".join(argv): digest(argv) for argv in calls()}
    GOLDEN.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", "utf-8")
    for key in sorted(before.keys() - table.keys()):
        print("removed %s: %s" % (key, before[key]))
    for key in sorted(table.keys() - before.keys()):
        print("added %s: %s" % (key, table[key]))
    for key in sorted(key for key in table.keys() & before.keys() if table[key] != before[key]):
        print("re-digested %s: %s -> %s" % (key, before[key], table[key]))
    print("%d calls written to %s" % (len(table), GOLDEN))
