"""The relation suite's shape: one level context per call, one function per relation.

`matrixmodel._Level` admits a system and builds, once per call, each
generator's image tables, fiber table and standard frame record, and
serves every other fiber table from a memo local to the call.  The
relation functions read it, and `verify_relations` only collects their
witnesses.  These tests pin the table counts, the memory of one call and
the size of each function.
"""

import ast
import inspect
import textwrap
import tracemalloc

import starshift.cylinder as cylinder
import starshift.matrixmodel as matrixmodel
from starshift import DynamicalSystem, Gf2Poly, verify_relations

RELATION_FUNCTIONS = [
    "_relation_i",
    "_relation_ii",
    "_relation_iii",
    "_relation_iv",
    "_matrix_units",
    "_frame_independence",
]


def system(*polys):
    names = ["p%d" % i for i in range(len(polys))]
    return DynamicalSystem.from_polys([Gf2Poly.parse(p) for p in polys], names)


def count_calls(monkeypatch, name):
    """Record the (map, length) of every call of the cylinder helper `name`, from either module."""
    real, seen = getattr(cylinder, name), []

    def counted(m, length):
        seen.append((m, length))
        return real(m, length)

    for module in (cylinder, matrixmodel):
        monkeypatch.setattr(module, name, counted)
    return seen


def test_one_verify_sorts_each_fiber_table_once(monkeypatch):
    """Each (map, length) is argsorted once per call, 4 times where one table per use took 9."""
    fibers = count_calls(monkeypatch, "_fibers")
    preimages = count_calls(monkeypatch, "_preimage_table")
    sys_ = system("t", "1+t", "1+t+t^2")
    t, one_t, led = sys_.generators
    for _ in range(2):
        fibers.clear()
        preimages.clear()
        verify_relations(sys_, 7)
        # Each generator's own level, and III's table of 1+t+t^2 against t and 1+t.
        assert sorted(fibers, key=repr) == sorted([(t, 7), (one_t, 7), (led, 7), (led, 8)], key=repr)
        assert preimages == [(t, 7), (one_t, 7), (led, 7)]


def test_second_verify_peak_is_within_eight_largest_tables():
    """The memory contract: a warm call holds at most eight int64 arrays of its largest table."""
    sys_, level = system("t", "1+t+t^2"), 16
    # The first call fills the image-table cache and the degree records.
    verify_relations(sys_, level)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verify_relations(sys_, level)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    # The largest table is image_table(level + 2) of the degree-2 generator.
    largest = 8 << (level + 2)
    assert peak <= 8 * largest, peak


def body_lines(fn):
    """The lines of a function after its signature and docstring."""
    lines, _ = inspect.getsourcelines(fn)
    node = ast.parse(textwrap.dedent("".join(lines))).body[0]
    first = node.body[1] if ast.get_docstring(node) is not None else node.body[0]
    return len(lines) - first.lineno + 1


def test_verify_relations_only_collects_witnesses():
    assert body_lines(verify_relations) <= 40


def test_each_relation_is_one_short_function():
    for name in RELATION_FUNCTIONS:
        fn = getattr(matrixmodel, name)
        assert len(inspect.getsourcelines(fn)[0]) <= 50, name
        # Each takes the level context first.
        assert next(iter(inspect.signature(fn).parameters)) == "level", name


def test_body_lines_skips_the_docstring():
    def documented():
        """Two
        lines."""
        return 1

    def bare():
        x = 1
        return x

    assert body_lines(documented) == 1
    assert body_lines(bare) == 2
