"""The relation suite's shortcuts against the routes they replace.

`matrixmodel._count_difference` finds the smallest key two sorted key
arrays count differently from their first differing index; the
`np.unique` route it replaced is kept here as the oracle.  The standard
frame of each degree has one Gram record (`cylinder._standard_record`),
built once by the same `_frame_stack` and `_stack_gram` as any other
frame, and read only when the suite's frame is those very members.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import starshift.cylinder as cylinder
import starshift.matrixmodel as matrixmodel
from starshift import CylinderFunction, DynamicalSystem, Gf2Poly, QuadScalar, verify_relations

deterministic = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def unique_count_difference(lhs, rhs):
    """The smallest key counted differently, and lhs minus rhs there, by counting every key."""
    lhs, rhs = np.sort(lhs), np.sort(rhs)
    if np.array_equal(lhs, rhs):
        return None
    keys, where = np.unique(np.concatenate([lhs, rhs]), return_inverse=True)
    net = np.bincount(where[: lhs.size], minlength=keys.size) - np.bincount(
        where[lhs.size :], minlength=keys.size
    )
    i = int(np.flatnonzero(net)[0])
    return int(keys[i]), int(net[i])


def assert_routes_agree(lhs, rhs):
    lhs, rhs = np.array(lhs, dtype=np.int64), np.array(rhs, dtype=np.int64)
    expected = unique_count_difference(lhs, rhs)
    assert matrixmodel._count_difference(lhs, rhs) == expected
    # Swapping the sides negates the count at the same key.
    swapped = None if expected is None else (expected[0], -expected[1])
    assert matrixmodel._count_difference(rhs, lhs) == swapped
    return expected


# Few distinct keys, so duplicates are common.
keys = st.lists(st.integers(0, 12), max_size=24)


class TestCountDifference:
    @deterministic
    @given(keys, keys)
    def test_independent_arrays(self, lhs, rhs):
        assert_routes_agree(lhs, rhs)

    @deterministic
    @given(keys, st.randoms(use_true_random=False))
    def test_equal_and_permuted_arrays(self, lhs, rng):
        rhs = list(lhs)
        rng.shuffle(rhs)
        assert assert_routes_agree(lhs, lhs) is None
        assert assert_routes_agree(lhs, rhs) is None

    @deterministic
    @given(keys.filter(bool), st.data())
    def test_single_changed_entry(self, lhs, data):
        i = data.draw(st.integers(0, len(lhs) - 1))
        rhs = list(lhs)
        rhs[i] = data.draw(st.integers(-2, 14))
        found = assert_routes_agree(lhs, rhs)
        if rhs[i] != lhs[i]:
            assert found == (min(lhs[i], rhs[i]), 1 if lhs[i] < rhs[i] else -1)

    @deterministic
    @given(keys, st.lists(st.integers(-2, 14), min_size=1, max_size=4))
    def test_unequal_lengths(self, lhs, extra):
        found = assert_routes_agree(lhs + extra, lhs)
        assert found == (min(extra), extra.count(min(extra)))

    @deterministic
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.integers(0, 3), st.integers(1, 3))
    def test_duplicate_keys(self, lhs, key, copies):
        assert assert_routes_agree(lhs + [key] * copies, lhs) == (key, copies)

    def test_empty_arrays(self):
        assert assert_routes_agree([], []) is None
        assert assert_routes_agree([5, 5, 2], []) == (2, 1)

    def test_wide_keys(self):
        """Keys of level-20 rows and columns keep their order and count."""
        lhs = [(3 << 40) | 7, (1 << 40) | 9, (1 << 40) | 9]
        assert assert_routes_agree(lhs, [(1 << 40) | 9, (3 << 40) | 7]) == ((1 << 40) | 9, 1)


def test_inverse_root_is_memoized_and_exact():
    for d in range(8):
        c = matrixmodel._inv_root(d)
        assert c is matrixmodel._inv_root(d)
        assert c * c == QuadScalar.of(Fraction(1, 1 << d))


SYSTEM = ("t", "1+t", "1+t+t^2")


def system():
    return DynamicalSystem.from_polys([Gf2Poly.parse(p) for p in SYSTEM], ["a", "b", "c"])


@pytest.fixture
def stacked(monkeypatch):
    """The member count of every frame stack `_stack_gram` multiplies, in call order."""
    calls = []
    real = cylinder._stack_gram

    def counted(num):
        calls.append(num.shape[1])
        return real(num)

    monkeypatch.setattr(cylinder, "_stack_gram", counted)
    return calls


class TestStandardRecord:
    def test_second_verify_stacks_no_gram(self, stacked):
        cylinder._standard_record.cache_clear()
        verify_relations(system(), 7)
        assert stacked
        stacked.clear()
        verify_relations(system(), 7)
        assert stacked == []

    def test_one_verify_stacks_each_standard_degree_once(self, stacked):
        cylinder._standard_record.cache_clear()
        verify_relations(system(), 7)
        # Degrees 1 and 2 for the generators, 2, 3 and 4 for their products.
        assert sorted(stacked) == [1 << d for d in (1, 2, 3, 4)]

    @pytest.mark.parametrize("d", range(7))
    def test_record_is_the_gram_of_the_members(self, d):
        members = cylinder._standard_members(d)
        (ga, gb), shared = cylinder._standard_record(d)
        ea, eb = cylinder._frame_gram(members, d, 1)
        assert np.array_equal(ga, ea) and np.array_equal(gb, eb)
        assert shared.shape == (1 << d,) and not shared.any()

    @pytest.mark.parametrize("d", range(4))
    def test_record_arrays_are_read_only(self, d):
        (ga, gb), shared = cylinder._standard_record(d)
        for arr in (ga, gb, shared):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1
        assert cylinder._standard_record(d)[0][0][0, 0] == 1 << d

    def test_equal_copies_of_the_members_get_their_own_gram(self, monkeypatch, stacked):
        """Only the members themselves read the record: equal copies are stacked, same report."""
        expected = verify_relations(system(), 7)
        real = cylinder.standard_frame

        def copies(m):
            return [CylinderFunction(nu.level, nu.num_a, nu.num_b, nu.den) for nu in real(m)]

        monkeypatch.setattr(matrixmodel, "standard_frame", copies)
        stacked.clear()
        assert verify_relations(system(), 7) == expected
        # Three generators and six products, each stacked once.
        assert len(stacked) == 3 + 6

    def test_patched_frame_is_stacked_and_fails(self, monkeypatch, stacked):
        verify_relations(system(), 7)
        real = cylinder.standard_frame
        target = system().generators[-1]

        def frames(m):
            frame = real(m)
            return [frame[0].scale(QuadScalar.of(2))] + frame[1:] if m == target else frame

        monkeypatch.setattr(matrixmodel, "standard_frame", frames)
        stacked.clear()
        report = verify_relations(system(), 7)
        assert stacked == [1 << (target.window - 1)]
        assert report.relations["IV"] is False
        assert report.witnesses["IV"]["pair"] == ["c"]

    def test_members_at_another_level_or_denominator_are_stacked(self, stacked):
        members = cylinder._standard_members(2)
        shapes = ((2, 1), (3, 1), (2, 3))
        cases = [(level, den, cylinder._frame_gram(members, level, den)) for level, den in shapes]
        cylinder._standard_record(2)
        stacked.clear()
        for level, den, (ea, eb) in cases:
            gram, shared = cylinder._frame_record(members, 2, level, den)
            assert np.array_equal(gram[0], ea) and np.array_equal(gram[1], eb)
            assert shared.shape == (4,) and not shared.any()
        assert stacked == [4, 4]
