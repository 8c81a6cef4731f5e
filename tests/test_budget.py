"""Admission: one base class for every refusal, and map tables admitted before they are built."""

import pytest

import starshift
import starshift.dictionary as dictionary
from starshift import (
    FrameTooLarge,
    Gf2Poly,
    KernelTooLarge,
    LevelTooLarge,
    OverBudget,
    PatchTooLarge,
    WindowMap,
    WindowTooLarge,
    star_commute_windows,
)

WINDOW_25 = "^window 25 needs a rule table of 2\\^25 entries, over the budget of 2\\^24$"


def refuse(*args):
    raise AssertionError("a table was built")


@pytest.fixture
def no_tables(monkeypatch):
    monkeypatch.setattr(dictionary, "_image_table", refuse)
    monkeypatch.setattr(dictionary, "_linear_table", refuse)


def poly_map(text):
    return WindowMap.from_poly(Gf2Poly.parse(text))


def test_every_refusal_is_an_exported_over_budget():
    assert starshift.OverBudget is OverBudget
    assert "OverBudget" in starshift.__all__
    assert issubclass(OverBudget, ValueError)
    for error in (WindowTooLarge, LevelTooLarge, FrameTooLarge, KernelTooLarge, PatchTooLarge):
        assert issubclass(error, OverBudget), error


def test_exponent_refusal_is_over_budget():
    with pytest.raises(OverBudget, match="^exponent 65537 over the limit of 2\\^16$"):
        Gf2Poly.parse("t^65537")
    assert Gf2Poly.parse("t^65536").degree == 65536


class TestRuleTables:
    def test_window_25_is_refused_before_any_mask(self, no_tables):
        m = poly_map("1+t^24")
        with pytest.raises(WindowTooLarge, match=WINDOW_25):
            m.rule
        with pytest.raises(WindowTooLarge, match=WINDOW_25):
            m.is_progressive

    def test_nonlinear_compose_to_window_25_is_refused_before_its_table(self, no_tables):
        nonlinear = WindowMap(13, 1)
        with pytest.raises(WindowTooLarge, match=WINDOW_25):
            nonlinear.compose(nonlinear)
        with pytest.raises(WindowTooLarge, match=WINDOW_25):
            nonlinear.compose(poly_map("1+t^12"))

    def test_linear_compose_builds_no_table_at_any_window(self, no_tables):
        assert poly_map("1+t^30").compose(poly_map("t^30")) == poly_map("t^30+t^60")

    def test_window_24_is_admitted(self, monkeypatch):
        m = poly_map("1+t^23")
        assert m.is_progressive
        assert m.rule >> (1 << 24) == 0
        # The nonlinear compose admits window 24 and goes on to build its table.
        monkeypatch.setattr(dictionary, "_image_table", refuse)
        with pytest.raises(AssertionError, match="a table was built"):
            WindowMap(12, 1).compose(WindowMap(13, 1))


class TestStarCommuteWindows:
    def test_length_25_is_refused_before_compose_and_tables(self, no_tables, monkeypatch):
        monkeypatch.setattr(WindowMap, "compose", refuse)
        with pytest.raises(LevelTooLarge) as info:
            star_commute_windows(poly_map("1+t^10"), poly_map("1+t^9"))
        assert info.value.entries == 1 << 25
        assert str(info.value) == (
            "level 25 needs an image table of 2^25 = 33554432 entries, over the budget of 2^24"
        )

    def test_length_24_is_admitted(self, monkeypatch):
        monkeypatch.setattr(dictionary, "_image_table", refuse)
        with pytest.raises(AssertionError, match="a table was built"):
            star_commute_windows(poly_map("1+t^10"), poly_map("1+t^8"))
