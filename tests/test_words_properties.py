"""Property tests for periodic tiling and the `PeriodicSeq` normal form."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from starshift import PeriodicSeq, Word
from starshift.words import _tile

deterministic = settings(derandomize=True, database=None, max_examples=400)


@st.composite
def periods(draw, max_width=24):
    width = draw(st.integers(1, max_width))
    return Word(width, draw(st.integers(0, (1 << width) - 1)))


words = st.integers(0, 16).flatmap(
    lambda n: st.builds(Word, st.just(n), st.integers(0, (1 << n) - 1))
)


@deterministic
@given(periods(max_width=40), st.integers(0, 300))
def test_tile_matches_string_repeat(period, total):
    text = str(period) * (total // period.length + 1)
    assert _tile(period.bits, period.length, total) == int("0" + text[:total], 2)


@deterministic
@given(words, periods(), st.integers(1, 4), st.integers(0, 30))
def test_unrolled_and_rotated_forms_share_one_normal_form(pre, per, reps, shift):
    """Repeating the period, or moving its first symbols into the
    preperiod, names the same sequence, so the normal form must agree."""
    seq = PeriodicSeq.from_parts(pre, per)
    stream = str(pre) + str(per) * (shift // per.length + reps + 1)
    moved = Word.from_str(stream[: pre.length + shift])
    rotated = Word.from_str(stream[pre.length + shift :][: per.length * reps])
    assert PeriodicSeq.from_parts(moved, rotated) == seq
    assert PeriodicSeq.from_parts(pre, Word.from_str(str(per) * reps)) == seq
    assert seq.pre_len <= pre.length and per.length % seq.per_len == 0
    assert str(seq.prefix(len(stream))) == stream
