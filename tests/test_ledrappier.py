"""Tests for triangular patches over the parity-of-neighbors dictionary."""

import random

import pytest

import starshift.ledrappier as ledrappier
from starshift import (
    BASIC_BLOCKS,
    LEDRAPPIER,
    Dictionary,
    Gf2Poly,
    NotProgressive,
    PatchTooLarge,
    TrianglePatch,
    WindowMap,
    Word,
    WordTooShort,
    apply_window_map,
    complete_patch,
    conjugate_vertical,
    stack_orbit,
)
from starshift.budget import KERNEL_BUDGET, admit_rows, row_symbols
from starshift.cli import _ledrappier_payload
from starshift.ledrappier import stack_rows, triangle_rows


def all_words(length):
    return [Word(length, bits) for bits in range(1 << length)]


def adjacent_xor(w):
    """One vertical step written out bit by bit; positions count from 1."""
    bits = [w.bit(i) ^ w.bit(i + 1) for i in range(1, w.length)]
    out = 0
    for b in bits:
        out = (out << 1) | b
    return Word(w.length - 1, out)


class TestConjugateVertical:
    def test_frozen_example(self):
        assert str(conjugate_vertical(Word.from_str("1101"))) == "011"

    def test_three_routes_agree(self):
        """The integer step against the bitwise and dictionary oracles."""
        for length in range(2, 13):
            for w in all_words(length):
                direct = conjugate_vertical(w)
                assert direct == adjacent_xor(w)
                assert direct == apply_window_map(LEDRAPPIER, w)

    def test_rejects_short_words(self):
        for text in ["", "0", "1"]:
            with pytest.raises(WordTooShort):
                conjugate_vertical(Word.from_str(text))


class TestCompletePatch:
    def test_frozen_example(self):
        patch = complete_patch(Word.from_str("1101"))
        assert [str(r) for r in patch.rows] == ["1101", "011", "10", "1"]
        assert str(patch.base) == "1101"
        assert patch.serialize() == "1101\n011\n10\n1"

    def test_rows_shrink_to_a_point(self):
        for length in range(1, 8):
            for w in all_words(length):
                patch = complete_patch(w)
                assert len(patch.rows) == length
                assert [r.length for r in patch.rows] == list(range(length, 0, -1))
                for upper, lower in zip(patch.rows[1:], patch.rows):
                    assert upper == adjacent_xor(lower)

    def test_rejects_empty_base(self):
        with pytest.raises(WordTooShort):
            complete_patch(Word.from_str(""))


def word_rows(base):
    """The triangle's rows as the `_pair_sums` chain of `Word`s."""
    rows = [base]
    while rows[-1].length > 1:
        rows.append(ledrappier._pair_sums(rows[-1]))
    return rows


class TestIntegerRows:
    """`triangle_rows` against the `Word` chain it replaced in `complete_patch` and the CLI."""

    def assert_rows_match(self, base):
        expected = word_rows(base)
        assert triangle_rows(base) == [w.bits for w in expected]
        assert complete_patch(base).rows == tuple(expected)

    def test_every_base_up_to_12_bits(self):
        for length in range(1, 13):
            for base in all_words(length):
                self.assert_rows_match(base)

    def test_seeded_500_bit_bases(self):
        rng = random.Random(500)
        for _ in range(20):
            self.assert_rows_match(Word(500, rng.getrandbits(500)))


class TestStackRows:
    """`stack_rows`, the CLI's `--steps` route, against `stack_orbit` over `LEDRAPPIER`."""

    def assert_rows_match(self, base, steps):
        expected = stack_orbit(LEDRAPPIER, base, steps)
        assert stack_rows(base, steps) == [w.bits for w in expected]
        payload = _ledrappier_payload(str(base), steps)
        assert payload["rows"] == [str(w) for w in expected]

    def test_every_base_up_to_12_bits_at_every_step_count(self):
        for length in range(1, 13):
            for base in all_words(length):
                for steps in range(length):
                    self.assert_rows_match(base, steps)

    def test_seeded_500_bit_bases(self):
        rng = random.Random(499)
        for _ in range(5):
            base = Word(500, rng.getrandbits(500))
            for steps in (0, 1, 250, 499):
                self.assert_rows_match(base, steps)

    def test_refusals_keep_their_order(self):
        with pytest.raises(ValueError, match="^steps must be nonnegative, got -1$"):
            stack_rows(Word(0, 0), -1)
        with pytest.raises(WordTooShort, match="^base too short for 4 steps$"):
            stack_rows(Word(4, 0), 4)
        with pytest.raises(WordTooShort, match="^base too short for 20000 steps$"):
            stack_rows(Word(20000, 0), 20000)
        with pytest.raises(PatchTooLarge, match="^a base of 20000 symbols lists 2001 rows, "):
            stack_rows(Word(20000, 0), 2000)

    def test_a_short_stack_over_a_wide_base_is_admitted(self):
        """The full triangle over 8,192 bits is refused, its first two rows are not."""
        self.assert_rows_match(Word(8192, random.Random(8192).getrandbits(8192)), 1)


class TestSubBlocks:
    def test_basic_blocks_are_the_parity_table(self):
        assert len(BASIC_BLOCKS) == 4
        seen_bottoms = set()
        for top, bottom in BASIC_BLOCKS:
            assert top.length == 1 and bottom.length == 2
            assert top.bit(1) == bottom.bit(1) ^ bottom.bit(2)
            seen_bottoms.add(str(bottom))
        assert seen_bottoms == {"00", "01", "10", "11"}

    def test_every_sub_block_is_basic(self):
        for length in range(2, 7):
            for w in all_words(length):
                patch = complete_patch(w)
                blocks = list(patch.sub_blocks())
                assert len(blocks) == length * (length - 1) // 2
                assert all(block in BASIC_BLOCKS for block in blocks)

    def test_frozen_example_blocks(self):
        patch = complete_patch(Word.from_str("1101"))
        blocks = [(str(t), str(b)) for t, b in patch.sub_blocks()]
        assert blocks == [
            ("0", "11"),
            ("1", "10"),
            ("1", "01"),
            ("1", "01"),
            ("0", "11"),
            ("1", "10"),
        ]


class TestStackOrbit:
    def test_matches_complete_patch(self):
        for length in range(1, 7):
            for w in all_words(length):
                full = complete_patch(w)
                rows = stack_orbit(LEDRAPPIER, w, length - 1)
                assert rows == full.rows

    def test_partial_orbit(self):
        rows = stack_orbit(LEDRAPPIER, Word.from_str("1101"), 2)
        assert [str(r) for r in rows] == ["1101", "011", "10"]

    def test_zero_steps(self):
        base = Word.from_str("10")
        assert stack_orbit(LEDRAPPIER, base, 0) == (base,)

    def test_negative_steps(self):
        with pytest.raises(ValueError, match="^steps must be nonnegative, got -1$"):
            stack_orbit(LEDRAPPIER, Word.from_str("1101"), -1)

    def test_too_many_steps(self):
        with pytest.raises(WordTooShort):
            stack_orbit(LEDRAPPIER, Word.from_str("1101"), 4)

    def test_not_progressive_names_the_dictionary(self):
        with pytest.raises(NotProgressive, match="^01,10,11$"):
            stack_orbit(Dictionary.from_text("01,10,11"), Word.from_str("1101"), 1)

    def test_nonlinear_progressive_dictionary(self):
        # 00,11 marks equal neighbours: the complement of the pair sums
        rows = stack_orbit(Dictionary.from_text("00,11"), Word.from_str("1101"), 2)
        assert [str(r) for r in rows] == ["1101", "100", "01"]


class TestTrianglePatch:
    def test_accepts_consistent_rows(self):
        rows = (Word.from_str("110"), Word.from_str("01"), Word.from_str("1"))
        patch = TrianglePatch(rows)
        assert patch.rows == rows
        assert patch.serialize() == "110\n01\n1"

    def test_rejects_inconsistent_rows(self):
        bad_pairs = [
            (Word.from_str("110"), Word.from_str("11")),
            (Word.from_str("110"), Word.from_str("0111")),
        ]
        for rows in bad_pairs:
            with pytest.raises(ValueError):
                TrianglePatch(rows)
        with pytest.raises(ValueError):
            TrianglePatch(
                (Word.from_str("110"), Word.from_str("01"), Word.from_str("0"))
            )

    def test_rejects_every_flipped_bit(self):
        rows = complete_patch(Word.from_str("1101001110001011")).rows
        for r in range(1, len(rows)):
            for i in range(rows[r].length):
                flipped = Word(rows[r].length, rows[r].bits ^ (1 << i))
                bad = rows[:r] + (flipped,) + rows[r + 1 :]
                with pytest.raises(ValueError, match="rows do not satisfy the triangle rule"):
                    TrianglePatch(bad)

    def test_rejects_wrong_row_lengths(self):
        # Rows whose bits are the pairwise sums cut to their own length, so
        # only the length check can refuse them.
        below = Word.from_str("110100")
        sums = below.bits ^ (below.bits >> 1)
        for length in (0, 1, 2, 3, 4, 6, 7):
            wrong = Word(length, sums & ((1 << length) - 1))
            with pytest.raises(ValueError, match="rows do not satisfy the triangle rule"):
                TrianglePatch((below, wrong))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrianglePatch(())

    def test_single_row(self):
        patch = TrianglePatch((Word.from_str("0"),))
        assert patch.serialize() == "0"
        assert list(patch.sub_blocks()) == []


class TestListingBudget:
    def test_prediction_counts_the_listed_symbols(self):
        xor3 = Dictionary(3, WindowMap.from_poly(Gf2Poly.parse("1+t+t^2")).rule)
        for length in range(1, 9):
            for w in all_words(length)[:3]:
                rows = complete_patch(w).rows
                assert sum(r.length for r in rows) == row_symbols(length, length - 1)
                for steps in range(length):
                    rows = stack_orbit(LEDRAPPIER, w, steps)
                    assert sum(r.length for r in rows) == row_symbols(length, steps)
                for steps in range((length + 1) // 2):
                    rows = stack_orbit(xor3, w, steps)
                    assert sum(r.length for r in rows) == row_symbols(length, steps, 3)

    def test_a_base_of_8191_symbols_is_the_largest_full_patch(self):
        assert row_symbols(8191, 8190) == 8191 * 8192 // 2 <= KERNEL_BUDGET
        assert row_symbols(8192, 8191) == 8192 * 8193 // 2 > KERNEL_BUDGET
        admit_rows(8191, 8190)
        message = "^a base of 8192 symbols lists 8192 rows, 33558528 symbols in all, over the budget of 2\\^25 symbols$"
        with pytest.raises(PatchTooLarge, match=message):
            admit_rows(8192, 8191)

    def test_stacks_are_refused_before_any_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(ledrappier, "apply_window_map", refuse)
        monkeypatch.setattr(ledrappier, "_pair_sums", refuse)
        base = Word(20000, 0)
        with pytest.raises(PatchTooLarge):
            complete_patch(base)
        with pytest.raises(PatchTooLarge, match="^a base of 20000 symbols lists 2001 rows, "):
            stack_orbit(LEDRAPPIER, base, 2000)
