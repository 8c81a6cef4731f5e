"""Tests for exact finite-level matrices, isometries, and defect reports."""

from fractions import Fraction

import numpy as np
import pytest

from starshift import (
    CylinderFunction,
    DynamicalSystem,
    FrameTooLarge,
    Gf2Poly,
    InvalidSystem,
    LevelOperator,
    LevelTooLarge,
    LevelTooSmall,
    MonoidElement,
    NoSeparation,
    NotProgressive,
    NumeratorOverflow,
    PeriodicSeq,
    QuadScalar,
    Word,
    WindowMap,
    alpha,
    annihilating_bump,
    basis,
    expectation_defect,
    isometry_matrix,
    recurrence_kernel,
    transfer,
    verify_relations,
)

T = Gf2Poly.parse("t")
ONE_T = Gf2Poly.parse("1+t")
LED_POLY = Gf2Poly.parse("1+t+t^2")
SHIFT = WindowMap.shift()
LED = WindowMap.from_poly(LED_POLY)


def all_words(length):
    return [Word(length, bits) for bits in range(1 << length)]


def chi(text):
    return CylinderFunction.indicator(Word.from_str(text))


def inv_root(k):
    """The exact scalar 1 / sqrt(2^k)."""
    if k % 2 == 0:
        return QuadScalar.of(Fraction(1, 1 << (k // 2)))
    return QuadScalar.of(0, Fraction(1, 1 << ((k + 1) // 2)))


def test_inv_root_helper():
    for k in range(6):
        assert inv_root(k) * QuadScalar.root2_power(k) == QuadScalar.of(1)


class TestLevelOperator:
    def test_identity(self):
        ident = LevelOperator.identity(2)
        for row in all_words(2):
            for col in all_words(2):
                expected = QuadScalar.of(1 if row == col else 0)
                assert ident.entry(row, col) == expected
        assert ident.diagonal() == CylinderFunction.one().embed(2)
        assert LevelOperator.identity(1).to_text() == "1 1 1; 1 0 0 1"

    def test_numerator_guard(self):
        big = LevelOperator.from_cylinder(CylinderFunction.from_values(0, [1 << 25]), 0)
        for op in (lambda m: m @ m, lambda m: m + m):
            with pytest.raises(NumeratorOverflow, match="^matrix numerators grew"):
                op(big)

    def test_from_cylinder_is_diagonal(self):
        f = chi("01")
        m = LevelOperator.from_cylinder(f, 2)
        assert m.diagonal() == f
        for row in all_words(2):
            for col in all_words(2):
                if row != col:
                    assert m.entry(row, col) == QuadScalar.of(0)
        g = chi("0")
        mg = LevelOperator.from_cylinder(g, 2)
        assert m @ mg == LevelOperator.from_cylinder(f * g, 2)

    def test_linear_structure(self):
        s = isometry_matrix(SHIFT, 2)
        two = QuadScalar.of(2)
        assert s + s == s.scaled(two)
        assert (s - s).is_zero
        assert (s - s).first_nonzero() is None
        half = QuadScalar.of(Fraction(1, 2))
        assert s.scaled(half).scaled(two) == s

    def test_first_nonzero(self):
        s = isometry_matrix(SHIFT, 1)
        row, col, value = s.first_nonzero()
        assert (row, col) == (Word(2, 0), Word(1, 0))
        assert value == inv_root(1)

    def test_adjoint_transposes(self):
        s = isometry_matrix(LED, 2)
        a = s.adjoint()
        for row in all_words(s.target_level):
            for col in all_words(s.source_level):
                assert a.entry(col, row) == s.entry(row, col)
        p = s @ s.adjoint()
        assert p.adjoint() == p

    def test_to_text(self):
        s = isometry_matrix(SHIFT, 1)
        assert s.to_text() == "1 2 1/2√2; 1 0 0 1 1 0 0 1"
        mixed = s + s.scaled(QuadScalar.of(0, 1))
        with pytest.raises(ValueError):
            mixed.to_text()

    def test_dimension_mismatch(self):
        s = isometry_matrix(SHIFT, 1)
        with pytest.raises(ValueError):
            s @ s
        with pytest.raises(ValueError):
            s + LevelOperator.identity(1)


class TestIsometry:
    def test_entries_follow_the_map(self):
        for m in [SHIFT, LED]:
            s = isometry_matrix(m, 2)
            scale = inv_root(m.window - 1)
            assert s.source_level == 2
            assert s.target_level == 2 + m.window - 1
            for row in all_words(s.target_level):
                for col in all_words(s.source_level):
                    expected = scale if m.apply(row) == col else QuadScalar.of(0)
                    assert s.entry(row, col) == expected

    def test_isometry_identity(self):
        for m in [SHIFT, LED]:
            for source in range(2, 5):
                s = isometry_matrix(m, source)
                assert s.adjoint() @ s == LevelOperator.identity(source)

    def test_range_projection(self):
        for m in [SHIFT, LED]:
            s = isometry_matrix(m, 3)
            p = s @ s.adjoint()
            assert p @ p == p
            assert p.adjoint() == p

    def test_composition_law(self):
        polys = [T, ONE_T, LED_POLY, Gf2Poly.parse("t^2")]
        source = 3
        for p in polys:
            for q in polys:
                mp, mq = WindowMap.from_poly(p), WindowMap.from_poly(q)
                dq = mq.window - 1
                combined = isometry_matrix(WindowMap.from_poly(p * q), source)
                staged = isometry_matrix(mp, source + dq) @ isometry_matrix(mq, source)
                assert combined == staged

    def test_covariance_with_multiplication(self):
        for m in [SHIFT, LED]:
            s = isometry_matrix(m, 2)
            for f in basis(2):
                lifted = LevelOperator.from_cylinder(alpha(m, f), s.target_level)
                plain = LevelOperator.from_cylinder(f, 2)
                assert lifted @ s == s @ plain

    def test_compression_averages(self):
        for m in [SHIFT, LED]:
            s = isometry_matrix(m, 2)
            for g in basis(s.target_level):
                sandwich = s.adjoint() @ LevelOperator.from_cylinder(g, s.target_level) @ s
                assert sandwich == LevelOperator.from_cylinder(transfer(m, g), 2)


class TestVerifyRelations:
    def test_coprime_pair_all_hold(self):
        sys = DynamicalSystem.from_polys([T, ONE_T], ["sigma", "theta"])
        report = verify_relations(sys, 6)
        assert report.level == 6
        assert report.relations == {
            "I": True,
            "II": True,
            "III": True,
            "IV": True,
            "frame_independence": True,
            "orthonormal_matrix_units": True,
        }
        assert report.witnesses == {}
        assert report.all_expected_hold
        (detail,) = report.pair_details
        assert detail == {
            "pair": ["sigma", "theta"],
            "gcd": "1",
            "coprime": True,
            "holds": True,
        }

    def test_shared_factor_breaks_commutation(self):
        sys = DynamicalSystem.from_polys([T, T + T * T], ["sigma", "theta"])
        report = verify_relations(sys, 6)
        flags = dict(report.relations)
        assert flags.pop("III") is False
        assert all(flags.values())
        assert report.witnesses["III"] == {
            "pair": ["sigma", "theta"],
            "row": "0000000",
            "col": "000000",
            "value": "1/4√2",
        }
        # a shared factor is the expected reason for the failure
        assert report.all_expected_hold
        (detail,) = report.pair_details
        assert detail["gcd"] == "t"
        assert detail["coprime"] is False
        assert detail["holds"] is False
        assert detail["witness"] == report.witnesses["III"]

    def test_witness_reproduces_failure(self):
        sys = DynamicalSystem.from_polys([T, T + T * T], ["sigma", "theta"])
        k = 6
        report = verify_relations(sys, k)
        row = Word.from_str(report.witnesses["III"]["row"])
        col = Word.from_str(report.witnesses["III"]["col"])
        mi, mj = sys.map_of(MonoidElement((1, 0))), sys.map_of(MonoidElement((0, 1)))
        di, dj = mi.window - 1, mj.window - 1
        # adjoint of the first isometry against the second, both orders
        lhs = isometry_matrix(mi, k + dj - di).adjoint() @ isometry_matrix(mj, k)
        rhs = isometry_matrix(mj, k - di) @ isometry_matrix(mi, k - di).adjoint()
        assert lhs != rhs
        diff = lhs - rhs
        value = diff.entry(row, col)
        assert str(value) == report.witnesses["III"]["value"]
        assert not value.is_zero

    def test_single_generator(self):
        report = verify_relations(DynamicalSystem.from_polys([T], ["s"]), 5)
        assert all(report.relations.values())
        assert report.pair_details == ()

    def test_three_generators(self):
        sys = DynamicalSystem.from_polys(
            [T, ONE_T, LED_POLY], ["a", "b", "c"]
        )
        report = verify_relations(sys, 6)
        assert all(report.relations.values())
        assert len(report.pair_details) == 3
        assert all(d["coprime"] and d["holds"] for d in report.pair_details)

    def test_json_shape(self):
        sys = DynamicalSystem.from_polys([T, ONE_T], ["sigma", "theta"])
        data = verify_relations(sys, 6).to_json_dict()
        assert set(data) == {"level", "relations", "witnesses", "pair_details"}
        assert set(data["relations"]) == {
            "I",
            "II",
            "III",
            "IV",
            "frame_independence",
            "orthonormal_matrix_units",
        }

    def test_errors(self):
        sys = DynamicalSystem.from_polys([T, ONE_T], ["sigma", "theta"])
        with pytest.raises(LevelTooSmall):
            verify_relations(sys, 1)
        with pytest.raises(InvalidSystem):
            verify_relations(DynamicalSystem.from_polys([], []), 4)

    def test_level_budget_refuses_before_any_table(self, monkeypatch):
        import starshift.dictionary as dictionary

        def refuse(m, length):
            raise AssertionError("an image table was built")

        monkeypatch.setattr(dictionary, "_image_table", refuse)
        sys = DynamicalSystem.from_polys([T, ONE_T], ["sigma", "theta"])
        with pytest.raises(LevelTooLarge) as info:
            verify_relations(sys, 60)
        assert info.value.entries == 1 << 61
        assert "2^61" in str(info.value)
        wide = DynamicalSystem.from_polys([T, LED_POLY], ["s", "c"])
        with pytest.raises(LevelTooLarge) as info:
            verify_relations(wide, 23)
        assert info.value.entries == 1 << 25

    def test_frame_budget_refuses_before_any_frame(self, monkeypatch):
        """Degrees 6-8 at their smallest levels are refused from the prediction alone."""
        import starshift.matrixmodel as matrixmodel

        def refuse(m):
            raise RuntimeError("a frame was built")

        monkeypatch.setattr(matrixmodel, "standard_frame", refuse)
        for degree, poly in ((6, "1+t+t^6"), (7, "1+t+t^7"), (8, "1+t^2+t^3+t^4+t^8")):
            sys = DynamicalSystem.from_polys([T, Gf2Poly.parse(poly)], ["s", "p"])
            with pytest.raises(FrameTooLarge, match="degree %d needs" % degree):
                verify_relations(sys, 2 * degree)
        # Degree 5 passes the prediction and goes on to build its frames.
        sys = DynamicalSystem.from_polys([T, Gf2Poly.parse("1+t^2+t^5")], ["s", "p"])
        with pytest.raises(RuntimeError, match="a frame was built"):
            verify_relations(sys, 10)

    def test_progressive_check_comes_before_the_frame_budget(self, monkeypatch):
        monkeypatch.setattr(WindowMap, "is_progressive", property(lambda m: False))
        sys = DynamicalSystem.from_polys([T, Gf2Poly.parse("1+t+t^7")], ["s", "p"])
        with pytest.raises(NotProgressive, match="isometries need a progressive rule"):
            verify_relations(sys, 14)

    def test_second_verify_builds_no_frame_member(self, monkeypatch):
        """Standard members are built once per degree: a repeated verify builds none."""
        import starshift.cylinder as cylinder

        builds = []
        post_init = CylinderFunction.__post_init__

        def counted(self):
            builds.append(self.level)
            post_init(self)

        monkeypatch.setattr(CylinderFunction, "__post_init__", counted)
        cylinder._standard_members.cache_clear()
        sys = DynamicalSystem.from_polys([T, LED_POLY, Gf2Poly.parse("1+t^2")], ["a", "b", "c"])
        counts = []
        for _ in range(2):
            builds.clear()
            verify_relations(sys, 7)
            counts.append(len(builds))
        # Degrees 1 and 2 for the generators, 2, 3 and 4 for their products.
        members = sum(1 << d for d in (1, 2, 3, 4))
        assert counts[0] - counts[1] == members == 30
        assert cylinder._standard_members.cache_info().misses == 4

    def test_deterministic(self):
        sys = DynamicalSystem.from_polys([T, T + T * T], ["sigma", "theta"])
        assert verify_relations(sys, 6) == verify_relations(sys, 6)


def refuse_tables(monkeypatch):
    """Make any image table, or any arange over the table budget, fail the test."""
    import starshift.dictionary as dictionary

    def refuse(m, length):
        raise AssertionError("an image table was built")

    arange = np.arange

    def small_arange(stop, *args, **kwargs):
        assert stop <= 1 << 24, "an array of %d entries was built" % stop
        return arange(stop, *args, **kwargs)

    monkeypatch.setattr(dictionary, "_image_table", refuse)
    monkeypatch.setattr(np, "arange", small_arange)


class TestExpectationDefect:
    def setup_method(self):
        self.rank1 = DynamicalSystem.from_polys([T], ["s"])
        self.coprime = DynamicalSystem.from_polys([T, ONE_T], ["s", "u"])

    def test_equal_elements_give_scaled_product(self):
        p = MonoidElement((1,))
        f, g = chi("1"), chi("11")
        report = expectation_defect(self.rank1, p, p, 4, f=f, g=g)
        assert report.defect == ()
        assert (report.requested_level, report.working_level) == (4, 4)
        assert report.output_level == 4
        half = QuadScalar.of(Fraction(1, 2))
        assert report.diagonal == (f * g).embed(4).scale(half)

    def test_equal_elements_without_weights(self):
        p = MonoidElement((2,))
        report = expectation_defect(self.rank1, p, p, 4)
        quarter = QuadScalar.of(Fraction(1, 4))
        assert report.diagonal == CylinderFunction.constant(4, quarter)
        assert report.defect == ()

    def test_shift_vs_double_shift(self):
        report = expectation_defect(
            self.rank1, MonoidElement((1,)), MonoidElement((2,)), 3
        )
        assert [str(w) for w in report.defect] == ["000", "011", "100", "111"]
        assert (report.requested_level, report.working_level) == (3, 5)
        assert report.output_level == 4
        live = [
            w
            for w in all_words(5)
            if not report.diagonal.value_at(w).is_zero
        ]
        assert [str(w) for w in live] == ["00000", "01111", "10000", "11111"]
        value = report.diagonal.value_at(Word.from_str("00000"))
        assert str(value) == "1/4√2"

    def test_defect_matches_kernel_truncations(self):
        cases = [
            (MonoidElement((1,)), MonoidElement((2,))),
            (MonoidElement((1,)), MonoidElement((3,))),
            (MonoidElement((2,)), MonoidElement((3,))),
        ]
        for p, q in cases:
            difference = self.rank1.poly_of(p) + self.rank1.poly_of(q)
            expected = sorted(
                {str(seq.prefix(4)) for seq in recurrence_kernel(difference)}
            )
            report = expectation_defect(self.rank1, p, q, 4)
            assert [str(w) for w in report.defect] == expected

    def test_coprime_pair_only_keeps_zero_word(self):
        report = expectation_defect(
            self.coprime, MonoidElement((1, 0)), MonoidElement((0, 1)), 3
        )
        assert [str(w) for w in report.defect] == ["000"]

    def test_row_weight_masks_diagonal_not_defect(self):
        report = expectation_defect(
            self.rank1, MonoidElement((1,)), MonoidElement((2,)), 3, f=chi("0")
        )
        live = [
            str(w)
            for w in all_words(5)
            if not report.diagonal.value_at(w).is_zero
        ]
        assert live == ["00000", "01111"]
        assert [str(w) for w in report.defect] == ["000", "011", "100", "111"]

    def test_json_shape(self):
        report = expectation_defect(
            self.rank1, MonoidElement((1,)), MonoidElement((2,)), 3
        )
        data = report.to_json_dict()
        assert data["defect"] == ["000", "011", "100", "111"]
        assert data["requested_level"] == 3
        assert data["working_level"] == 5
        assert data["output_level"] == 4
        assert CylinderFunction.deserialize(data["diagonal"]) == report.diagonal

    def test_level_budget_refuses_before_any_array(self, monkeypatch):
        """The diagonal's level, k + 1 here, is checked like verify's table level."""
        refuse_tables(monkeypatch)
        p, q = MonoidElement((1, 0)), MonoidElement((0, 1))
        for level, power in ((24, 25), (30, 31)):
            with pytest.raises(LevelTooLarge) as info:
                expectation_defect(self.coprime, p, q, level)
            assert str(info.value) == (
                "level %d needs an image table of 2^%d = %d entries, over the budget of 2^24"
                % (level, power, 1 << power)
            )
        # For p = q the diagonal is read at level k itself.
        with pytest.raises(LevelTooLarge, match="^level 25 needs an image table of 2\\^25 "):
            expectation_defect(self.coprime, p, p, 25)

    def test_errors(self):
        p, q = MonoidElement((1,)), MonoidElement((2,))
        with pytest.raises(LevelTooSmall):
            expectation_defect(self.rank1, p, q, 1)
        entangled = DynamicalSystem.from_polys([T, T + T * T], ["s", "u"])
        with pytest.raises(InvalidSystem):
            expectation_defect(
                entangled, MonoidElement((1, 0)), MonoidElement((0, 1)), 3
            )
        deep = CylinderFunction.indicator(Word.from_str("0101"))
        with pytest.raises(ValueError):
            expectation_defect(self.rank1, p, p, 2, f=deep)
        with pytest.raises(ValueError):
            expectation_defect(self.rank1, MonoidElement((1, 0)), q, 3)


class TestAnnihilatingBump:
    def setup_method(self):
        self.coprime = DynamicalSystem.from_polys([T, ONE_T], ["s", "u"])
        self.p = MonoidElement((1, 0))
        self.q = MonoidElement((0, 1))

    def rebuild_sandwich(self, sys, p, q, prefix, level):
        mp, mq = sys.map_of(p), sys.map_of(q)
        dq = mq.window - 1
        indicator = CylinderFunction.indicator(prefix)
        sq = isometry_matrix(mq, level - dq)
        sp = isometry_matrix(mp, level - dq)
        return (sp @ sq.adjoint()).scale_rows(indicator).scale_cols(indicator)

    def test_frozen_example(self):
        report = annihilating_bump(self.coprime, self.p, self.q, PeriodicSeq.parse("1:0"))
        assert str(report.prefix) == "10"
        assert report.level == 5
        assert report.to_json_dict() == {"prefix": "10", "level": 5}

    def test_certified_sandwich_vanishes(self):
        x = PeriodicSeq.parse("1:0")
        report = annihilating_bump(self.coprime, self.p, self.q, x)
        sandwich = self.rebuild_sandwich(
            self.coprime, self.p, self.q, report.prefix, report.level
        )
        assert sandwich.is_zero
        # the one-step-shorter prefix was tried first and rejected
        shorter = x.prefix(report.prefix.length - 1)
        earlier_level = report.level - 1
        rejected = self.rebuild_sandwich(
            self.coprime, self.p, self.q, shorter, earlier_level
        )
        assert not rejected.is_zero

    def test_late_disagreement(self):
        x = PeriodicSeq.parse("0001:0")
        report = annihilating_bump(self.coprime, self.p, self.q, x)
        assert str(report.prefix) == "00010"
        assert report.level == 8
        assert x.prefix(report.prefix.length) == report.prefix
        sandwich = self.rebuild_sandwich(
            self.coprime, self.p, self.q, report.prefix, report.level
        )
        assert sandwich.is_zero

    def test_wider_window_pair(self):
        sys = DynamicalSystem.from_polys([T, LED_POLY], ["s", "c"])
        x = PeriodicSeq.parse("1:0")
        report = annihilating_bump(sys, self.p, self.q, x)
        assert x.prefix(report.prefix.length) == report.prefix
        sandwich = self.rebuild_sandwich(sys, self.p, self.q, report.prefix, report.level)
        assert sandwich.is_zero

    def test_no_separation(self):
        with pytest.raises(NoSeparation):
            annihilating_bump(self.coprime, self.p, self.p, PeriodicSeq.parse("1:0"))
        rank1 = DynamicalSystem.from_polys([T], ["s"])
        with pytest.raises(NoSeparation):
            annihilating_bump(
                rank1, MonoidElement((1,)), MonoidElement((2,)), PeriodicSeq.parse("1:0")
            )
        with pytest.raises(NoSeparation):
            annihilating_bump(self.coprime, self.p, self.q, PeriodicSeq.parse(":0"))

    def test_exhausted_bound_is_a_typed_error(self, monkeypatch):
        """Image tables that share every image leave no prefix that separates."""

        def shared_images(m, length):
            return np.zeros(1 << length, dtype=np.int64)

        monkeypatch.setattr(WindowMap, "image_table", shared_images)
        with pytest.raises(NoSeparation, match="no prefix of length up to 2 separates"):
            annihilating_bump(self.coprime, self.p, self.q, PeriodicSeq.parse("1:0"))

    def test_level_budget_refuses_before_any_table(self, monkeypatch):
        """x = 0^40 1:0 first separates at coordinate 41, so the search may reach
        prefix 42 and its tables of 2^45 entries: refused before the first."""
        refuse_tables(monkeypatch)
        x = PeriodicSeq.parse("0" * 40 + "1:0")
        with pytest.raises(LevelTooLarge) as info:
            annihilating_bump(self.coprime, self.p, self.q, x)
        assert str(info.value) == (
            "level 45 needs an image table of 2^45 = %d entries, over the budget of 2^24" % (1 << 45)
        )
