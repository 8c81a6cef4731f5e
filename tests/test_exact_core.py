"""Property tests of the exact a + b*sqrt2 core that functions and operators share.

`CylinderFunction` and `LevelOperator` hold two int64 numerator arrays over
one denominator and share one product rule, one sum rule and one reduce
step.  On random small numerators and denominators, each of their
operations must agree entry by entry with `QuadScalar` arithmetic on the
exact values, and must land on the same reduced form as the exact result
built afresh.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from starshift import CylinderFunction, LevelOperator, NumeratorOverflow, QuadScalar, Word

deterministic = settings(derandomize=True, database=None, max_examples=150, deadline=None)

numerators = st.integers(-60, 60)
denominators = st.integers(1, 12)
scalars = st.builds(
    lambda a, b, d: QuadScalar(Fraction(a, d), Fraction(b, d)), numerators, numerators, denominators
)


@st.composite
def functions(draw, level=None):
    level = draw(st.integers(0, 3)) if level is None else level
    size = 1 << level
    a = draw(st.lists(numerators, min_size=size, max_size=size))
    b = draw(st.lists(numerators, min_size=size, max_size=size))
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    return CylinderFunction(level, a, b, draw(denominators))


@st.composite
def operators(draw, source, target):
    shape = (1 << target, 1 << source)
    cells = shape[0] * shape[1]
    a = draw(st.lists(numerators, min_size=cells, max_size=cells))
    b = draw(st.lists(numerators, min_size=cells, max_size=cells))
    a, b = (np.array(x, dtype=np.int64).reshape(shape) for x in (a, b))
    return LevelOperator(source, target, a, b, draw(denominators))


def quad_mul(x, y):
    """(a + b sqrt2)(c + d sqrt2), written out independently of the core."""
    return QuadScalar(x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a)


def approx(x):
    return float(x.a) + float(x.b) * math.sqrt(2)


def values_at(f, level):
    return list(f.embed(level).values)


def matrix(op):
    rows = [Word(op.target_level, r) for r in range(1 << op.target_level)]
    cols = [Word(op.source_level, c) for c in range(1 << op.source_level)]
    return [[op.entry(r, c) for c in cols] for r in rows]


def numerators_of(values):
    """Exact values as (a, b, den) numerator arrays over the lcm of their denominators."""
    flat = np.ravel(np.array(values, dtype=object))
    den = math.lcm(1, *(v.a.denominator for v in flat), *(v.b.denominator for v in flat))
    a = np.array([int(v.a * den) for v in flat], dtype=np.int64).reshape(np.shape(values))
    b = np.array([int(v.b * den) for v in flat], dtype=np.int64).reshape(np.shape(values))
    return a, b, den


def operator_of(source, target, rows):
    return LevelOperator(source, target, *numerators_of(rows))


@deterministic
@given(scalars, scalars)
def test_scalar_product_is_the_written_out_rule(x, y):
    assert x * y == quad_mul(x, y)
    assert math.isclose(approx(x * y), approx(x) * approx(y), abs_tol=1e-9)


@deterministic
@given(functions(), functions())
def test_function_products_and_sums_agree_with_scalars(f, g):
    level = max(f.level, g.level)
    fv, gv = values_at(f, level), values_at(g, level)
    products = [quad_mul(x, y) for x, y in zip(fv, gv)]
    sums = [x + y for x, y in zip(fv, gv)]
    assert list((f * g).values) == products and list((f + g).values) == sums
    assert f * g == CylinderFunction(level, *numerators_of(products))
    assert f + g == CylinderFunction(level, *numerators_of(sums))
    assert (f - f).is_zero


@deterministic
@given(st.data(), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_operator_product_agrees_with_scalars(data, left, middle, right):
    p = data.draw(operators(middle, left))
    q = data.draw(operators(right, middle))
    pm, qm = matrix(p), matrix(q)
    inner = range(1 << middle)
    expected = [
        [sum((quad_mul(row[k], qm[k][c]) for k in inner), QuadScalar()) for c in range(1 << right)]
        for row in pm
    ]
    product = p @ q
    assert matrix(product) == expected
    assert product == operator_of(right, left, expected)


@deterministic
@given(st.data(), st.integers(0, 2), st.integers(0, 2), scalars)
def test_operator_sum_and_scaling_agree_with_scalars(data, source, target, s):
    p = data.draw(operators(source, target))
    q = data.draw(operators(source, target))
    pm, qm = matrix(p), matrix(q)
    total = [[x + y for x, y in zip(pr, qr)] for pr, qr in zip(pm, qm)]
    scaled = [[quad_mul(x, s) for x in pr] for pr in pm]
    assert matrix(p + q) == total and p + q == operator_of(source, target, total)
    assert matrix(p.scaled(s)) == scaled and p.scaled(s) == operator_of(source, target, scaled)
    assert (p - p).is_zero


@deterministic
@given(st.data(), st.integers(0, 2), st.integers(0, 2))
def test_operator_row_and_column_scaling_agree_with_scalars(data, source, target):
    p = data.draw(operators(source, target))
    f = data.draw(functions(data.draw(st.integers(0, target))))
    g = data.draw(functions(data.draw(st.integers(0, source))))
    pm, fv, gv = matrix(p), values_at(f, target), values_at(g, source)
    rows = [[quad_mul(fv[r], x) for x in pr] for r, pr in enumerate(pm)]
    cols = [[quad_mul(x, gv[c]) for c, x in enumerate(pr)] for pr in pm]
    assert matrix(p.scale_rows(f)) == rows and p.scale_rows(f) == operator_of(source, target, rows)
    assert matrix(p.scale_cols(g)) == cols and p.scale_cols(g) == operator_of(source, target, cols)
    # Through the multiplication operators the same products are compositions.
    assert p.scale_rows(f) == LevelOperator.from_cylinder(f, target) @ p
    assert p.scale_cols(g) == p @ LevelOperator.from_cylinder(g, source)


@deterministic
@given(functions(), functions(), st.integers(0, 1))
def test_multiplication_operators_compose_like_their_functions(f, g, extra):
    level = max(f.level, g.level) + extra
    mf, mg = LevelOperator.from_cylinder(f, level), LevelOperator.from_cylinder(g, level)
    assert mf @ mg == LevelOperator.from_cylinder(f * g, level)
    assert mf + mg == LevelOperator.from_cylinder(f + g, level)
    assert (mf @ mg).diagonal() == (f * g).embed(level)


@pytest.mark.parametrize(
    "scalar", [QuadScalar.of(1 << 50), QuadScalar.of(1 << 64), QuadScalar.of(-(1 << 70)), QuadScalar.of(0, 1 << 40)]
)
def test_scaling_by_a_scalar_past_the_guard_is_refused(scalar):
    """2^20 times 2^50 would wrap to 0 in int64; the scalar's numerators meet the operator guard."""
    op = LevelOperator.from_cylinder(CylinderFunction.from_values(0, [1 << 20]), 0)
    with pytest.raises(NumeratorOverflow):
        op.scaled(scalar)
