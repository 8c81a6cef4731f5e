"""Tests for exact cylinder functions, averaging operators, and frames."""

from fractions import Fraction

import numpy as np
import pytest

from dense_oracle import CommuteDecision, operator_commute_check
from starshift import (
    CylinderFunction,
    DynamicalSystem,
    Gf2Poly,
    NonCommutingMaps,
    NotAFrame,
    NotProgressive,
    NumeratorOverflow,
    QuadScalar,
    Word,
    WindowMap,
    alpha,
    basis,
    expectation,
    inner_product,
    poly_gcd,
    refine_frame,
    standard_frame,
    transfer,
    verify_frame,
    verify_relations,
)
from starshift.cylinder import _refined_gram, _standard_members

SHIFT = WindowMap.shift()
XOR2 = WindowMap.from_poly(Gf2Poly.parse("1+t"))
LED = WindowMap.from_poly(Gf2Poly.parse("1+t+t^2"))
DOUBLE = WindowMap.from_poly(Gf2Poly.parse("t^2"))
# completion bit xor the product of the two state bits: progressive, nonlinear
NONLINEAR = WindowMap(3, 0b01101010)

MAP_POOL = [SHIFT, XOR2, LED, DOUBLE, NONLINEAR]


def all_words(length):
    return [Word(length, bits) for bits in range(1 << length)]


def chi(text):
    return CylinderFunction.indicator(Word.from_str(text))


def scalar_grid():
    fracs = [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(1, 2),
        Fraction(-3, 4),
        Fraction(2),
    ]
    return [QuadScalar.of(a, b) for a in fracs for b in fracs]


def alpha_oracle(m, f):
    """Pull back pointwise: value at y is the value of f at m(y)."""
    level = f.level + m.window - 1
    if f.level == 0:
        vals = [f.value_at(Word(0, 0))] * (1 << level)
    else:
        vals = [f.value_at(m.apply(y)) for y in all_words(level)]
    return CylinderFunction.from_values(level, vals)


def transfer_oracle(m, f):
    """Average f over each fiber by direct enumeration of preimages."""
    out = max(f.level - m.window + 1, 0)
    depth = out + m.window - 1
    inv = QuadScalar.of(Fraction(1, m.fiber_count))
    vals = []
    for x in all_words(out):
        total = QuadScalar.of(0)
        for y in all_words(depth):
            if out == 0 or m.apply(y) == x:
                prefix = Word(f.level, y.bits >> (depth - f.level))
                total = total + f.value_at(prefix)
        vals.append(total * inv)
    return CylinderFunction.from_values(out, vals)


class TestQuadScalar:
    def test_canonical_strings(self):
        for text in [
            "0",
            "1",
            "-1",
            "1/2",
            "√2",
            "-√2",
            "3/4√2",
            "2√2",
            "1+√2",
            "1/2-3/4√2",
            "-1/2+√2",
        ]:
            assert str(QuadScalar.parse(text)) == text

    def test_parse_str_round_trip(self):
        for q in scalar_grid():
            assert QuadScalar.parse(str(q)) == q

    def test_parse_accepts_ascii_root(self):
        assert QuadScalar.parse("sqrt2") == QuadScalar.of(0, 1)
        assert QuadScalar.parse("1/2 + 3 sqrt2".replace(" ", "")) == QuadScalar.of(
            Fraction(1, 2), 3
        )

    def test_parse_errors(self):
        for bad in ["", "√3", "1+1", "1//2", "x"]:
            with pytest.raises(ValueError):
                QuadScalar.parse(bad)

    def test_arithmetic_matches_component_formulas(self):
        grid = scalar_grid()
        for p in grid:
            for q in grid:
                s = p + q
                assert (s.a, s.b) == (p.a + q.a, p.b + q.b)
                d = p - q
                assert (d.a, d.b) == (p.a - q.a, p.b - q.b)
                m = p * q
                assert (m.a, m.b) == (
                    p.a * q.a + 2 * p.b * q.b,
                    p.a * q.b + p.b * q.a,
                )
            assert (-p) + p == QuadScalar.of(0)

    def test_root_powers(self):
        root = QuadScalar.of(0, 1)
        acc = QuadScalar.of(1)
        for k in range(8):
            assert QuadScalar.root2_power(k) == acc
            acc = acc * root
        assert QuadScalar.root2_power(2) == QuadScalar.of(2)
        with pytest.raises(ValueError):
            QuadScalar.root2_power(-1)

    def test_is_zero(self):
        assert QuadScalar.of(0).is_zero
        assert not QuadScalar.of(0, Fraction(1, 8)).is_zero


class TestCylinderFunction:
    def test_from_values_round_trip(self):
        vals = [QuadScalar.parse(s) for s in ["1/2", "-√2", "0", "1+√2"]]
        f = CylinderFunction.from_values(2, vals)
        assert f.level == 2
        assert list(f.values) == vals
        for w, v in zip(all_words(2), vals):
            assert f.value_at(w) == v

    def test_from_values_length_check(self):
        with pytest.raises(ValueError):
            CylinderFunction.from_values(2, [QuadScalar.of(1)] * 3)

    def test_indicator_values(self):
        for level in range(4):
            for w in all_words(level):
                f = CylinderFunction.indicator(w)
                assert f.level == level
                for v in all_words(level):
                    expected = QuadScalar.of(1 if v == w else 0)
                    assert f.value_at(v) == expected

    def test_constant_one_zero(self):
        assert CylinderFunction.one().level == 0
        assert CylinderFunction.one() == CylinderFunction.constant(3, QuadScalar.of(1))
        assert CylinderFunction.zero(1) == CylinderFunction.zero(3)
        half = CylinderFunction.constant(2, QuadScalar.of(Fraction(1, 2)))
        assert half + half == CylinderFunction.one()

    def test_embedding(self):
        f = chi("01")
        g = f.embed(4)
        assert g.level == 4 and g == f
        for y in all_words(4):
            prefix = Word(2, y.bits >> 2)
            assert g.value_at(y) == f.value_at(prefix)
        with pytest.raises(ValueError):
            f.embed(1)

    def test_pointwise_algebra(self):
        f = chi("01")
        g = chi("0")
        assert (f + g).level == 2
        assert f * g == f  # 01 extends 0
        assert (f * chi("1")).is_zero
        assert (f - f).is_zero
        assert -f == f.scale(QuadScalar.of(-1))
        root = QuadScalar.of(0, 1)
        assert f.scale(root).value_at(Word.from_str("01")) == root

    def test_indicators_partition_unity(self):
        for level in range(4):
            total = CylinderFunction.zero(level)
            for f in basis(level):
                total = total + f
            assert total == CylinderFunction.one()
            for i, f in enumerate(basis(level)):
                for j, g in enumerate(basis(level)):
                    prod = f * g
                    assert prod == (f if i == j else CylinderFunction.zero(level))

    def test_serialize_round_trip(self):
        for level in range(3):
            for f in basis(level):
                g = f.scale(QuadScalar.parse("1/2+√2"))
                data = g.serialize()
                assert data["level"] == level
                assert CylinderFunction.deserialize(data) == g
        with pytest.raises(ValueError):
            CylinderFunction.deserialize({"level": 1, "values": ["0"]})

    def test_basis_order(self):
        for level in range(4):
            fam = basis(level)
            assert len(fam) == 1 << level
            for w, f in zip(all_words(level), fam):
                assert f == CylinderFunction.indicator(w)


class TestAlpha:
    def test_frozen_example(self):
        f = alpha(LED, chi("1"))
        assert f.serialize() == {
            "level": 3,
            "values": ["0", "1", "1", "0", "1", "0", "0", "1"],
        }

    def test_matches_pullback_oracle(self):
        for m in MAP_POOL:
            for level in range(3):
                for f in basis(level):
                    assert alpha(m, f) == alpha_oracle(m, f)

    def test_ring_homomorphism(self):
        for m in MAP_POOL:
            fs = basis(2)
            for f in fs:
                for g in fs:
                    assert alpha(m, f * g) == alpha(m, f) * alpha(m, g)
                    assert alpha(m, f + g) == alpha(m, f) + alpha(m, g)
            one = CylinderFunction.one().embed(2)
            assert alpha(m, one) == CylinderFunction.one()

    def test_level_shift(self):
        for m in MAP_POOL:
            assert alpha(m, chi("01")).level == 2 + m.window - 1


class TestTransfer:
    def test_frozen_examples(self):
        assert transfer(SHIFT, chi("1")).serialize() == {"level": 0, "values": ["1/2"]}
        assert transfer(LED, chi("11")).serialize() == {"level": 0, "values": ["1/4"]}
        # below the window size the whole fiber is averaged over its prefixes
        assert transfer(LED, chi("1")).serialize() == {"level": 0, "values": ["1/2"]}

    def test_matches_fiber_average_oracle(self):
        for m in MAP_POOL:
            for level in range(m.window + 1):
                for f in basis(level):
                    assert transfer(m, f) == transfer_oracle(m, f)

    def test_preserves_one(self):
        for m in MAP_POOL:
            one = CylinderFunction.one().embed(m.window)
            assert transfer(m, one) == CylinderFunction.one()

    def test_section_of_alpha(self):
        for m in MAP_POOL:
            for f in basis(2):
                assert transfer(m, alpha(m, f)) == f

    def test_bimodule_rule(self):
        # averaging pulls pulled-back factors out front
        for m in MAP_POOL:
            glevel = 2 + m.window - 1
            for f in basis(2):
                for g in basis(glevel):
                    assert transfer(m, alpha(m, f) * g) == f * transfer(m, g)

    def test_requires_progressive(self):
        lazy = WindowMap(2, 0b0011)
        with pytest.raises(NotProgressive):
            transfer(lazy, chi("01"))


class TestExpectation:
    def test_frozen_example(self):
        assert expectation(LED, chi("11")).serialize() == {
            "level": 2,
            "values": ["1/4", "1/4", "1/4", "1/4"],
        }

    def test_idempotent_and_fixes_pullbacks(self):
        for m in MAP_POOL:
            for f in basis(m.window):
                e = expectation(m, f)
                assert expectation(m, e) == e
            for g in basis(1):
                lifted = alpha(m, g)
                assert expectation(m, lifted) == lifted

    def test_preserves_level_and_one(self):
        for m in MAP_POOL:
            f = chi("1" * m.window)
            assert expectation(m, f).level == f.level
            one = CylinderFunction.one().embed(m.window)
            assert expectation(m, one) == CylinderFunction.one()


class TestInnerProduct:
    def test_equals_averaged_product(self):
        for m in MAP_POOL:
            fam = basis(m.window)
            for f in fam[:4]:
                for g in fam:
                    assert inner_product(m, f, g) == transfer(m, f * g)
                    assert inner_product(m, f, g) == inner_product(m, g, f)

    def test_module_linearity_in_second_slot(self):
        # <f, g * alpha(h)> = <f, g> * h
        for m in MAP_POOL:
            glevel = 1 + m.window - 1
            for f in basis(glevel):
                for g in basis(glevel):
                    for h in basis(1):
                        lhs = inner_product(m, f, g * alpha(m, h))
                        assert lhs == inner_product(m, f, g) * h


class TestStandardFrame:
    def test_shape(self):
        for m in MAP_POOL:
            fam = standard_frame(m)
            n = m.window
            assert len(fam) == 1 << (n - 1)
            root = QuadScalar.root2_power(n - 1)
            for w, nu in zip(all_words(n - 1), fam):
                assert nu == CylinderFunction.indicator(w).scale(root)

    def test_orthonormal(self):
        for m in MAP_POOL:
            fam = standard_frame(m)
            for i, nu in enumerate(fam):
                for j, mu in enumerate(fam):
                    ip = inner_product(m, nu, mu)
                    if i == j:
                        assert ip == CylinderFunction.one()
                    else:
                        assert ip.is_zero

    def test_verify_accepts(self):
        for m in MAP_POOL:
            assert verify_frame(standard_frame(m), m) is None

    def test_reconstruction_on_basis(self):
        for m in [SHIFT, LED, NONLINEAR]:
            fam = standard_frame(m)
            for f in basis(m.window):
                total = CylinderFunction.zero(f.level)
                for nu in fam:
                    total = total + nu * expectation(m, nu * f)
                assert total == f

    def test_requires_progressive(self):
        with pytest.raises(NotProgressive):
            standard_frame(WindowMap(2, 0b0011))

    @pytest.mark.parametrize("window", range(1, 9))
    def test_members_match_scaled_indicators(self, window):
        m = WindowMap.from_poly(Gf2Poly.parse("t^%d" % (window - 1)))
        d = m.window - 1
        root = QuadScalar.root2_power(d)
        fam = standard_frame(m)
        assert len(fam) == 1 << d
        for v, nu in enumerate(fam):
            old = CylinderFunction.indicator(Word(d, v)).scale(root)
            assert (nu.level, nu.den) == (old.level, old.den)
            assert np.array_equal(nu.num_a, old.num_a) and np.array_equal(nu.num_b, old.num_b)


class TestStandardMembers:
    """The standard members of each degree are built once and shared read-only."""

    @pytest.mark.parametrize("d", range(9))
    def test_memoized_members_are_the_scaled_indicators(self, d):
        _standard_members.cache_clear()
        m = WindowMap.from_poly(Gf2Poly(1 << d))
        root = QuadScalar.root2_power(d)
        first, second = standard_frame(m), standard_frame(m)
        assert _standard_members.cache_info().misses == 1
        for fam in (first, second):
            assert len(fam) == 1 << d
            for v, nu in enumerate(fam):
                fresh = CylinderFunction.indicator(Word(d, v)).scale(root)
                assert (nu.level, nu.den) == (fresh.level, fresh.den)
                assert np.array_equal(nu.num_a, fresh.num_a)
                assert np.array_equal(nu.num_b, fresh.num_b)

    def test_changing_a_returned_list_leaves_the_next_unchanged(self):
        fam = standard_frame(LED)
        members = list(fam)
        fam[0] = fam[0].scale(QuadScalar.of(2))
        fam.append(fam[1])
        del fam[2]
        again = standard_frame(LED)
        assert again is not fam
        assert len(again) == len(members)
        assert all(a is b for a, b in zip(again, members))

    def test_member_arrays_cannot_be_made_writeable(self):
        for m in (SHIFT, LED, WindowMap.from_poly(Gf2Poly(1 << 3))):
            for nu in standard_frame(m):
                for arr in (nu.num_a, nu.num_b, nu.num_a.base, nu.num_b.base):
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr.setflags(write=True)


class TestVerifyFrame:
    def test_rejects_empty(self):
        with pytest.raises(NotAFrame):
            verify_frame([], SHIFT)

    def test_rejects_partial_family(self):
        fam = standard_frame(SHIFT)
        with pytest.raises(NotAFrame, match="sum to one"):
            verify_frame(fam[:1], SHIFT)

    def test_rejects_non_injective_support(self):
        root = QuadScalar.of(0, 1)
        const = CylinderFunction.one().scale(root)
        with pytest.raises(NotAFrame, match="injective"):
            verify_frame([const], SHIFT)

    def test_accepts_refined_indicator_family(self):
        # a finer indicator family than the standard one still works
        root = QuadScalar.of(0, 1)
        fam = [f.scale(root) for f in basis(2)]
        assert verify_frame(fam, SHIFT) is None

    def test_sign_flips_are_harmless(self):
        fam = standard_frame(LED)
        fam[0] = fam[0].scale(QuadScalar.of(-1))
        assert verify_frame(fam, LED) is None


class TestRefineFrame:
    def test_shift_twice_gives_double_shift_frame(self):
        fam = refine_frame(standard_frame(SHIFT), SHIFT, standard_frame(SHIFT), SHIFT)
        expected = standard_frame(DOUBLE)
        key = lambda f: sorted(str(v) for v in f.values)
        assert sorted(map(key, fam)) == sorted(map(key, expected))

    def test_mixed_composite(self):
        for m1, m2 in [(SHIFT, LED), (LED, SHIFT), (LED, NONLINEAR)]:
            fam = refine_frame(standard_frame(m1), m1, standard_frame(m2), m2)
            composite = m1.compose(m2)
            assert len(fam) == (1 << (m1.window - 1)) * (1 << (m2.window - 1))
            assert verify_frame(fam, composite) is None

    def test_validates_inputs(self):
        with pytest.raises(NotAFrame):
            refine_frame([], SHIFT, standard_frame(SHIFT), SHIFT)


class TestOperatorCommute:
    """Relation (III) in function form, kept in `dense_oracle` as a dense oracle."""

    POLYS = [Gf2Poly((1 << deg) | low) for deg in range(1, 4) for low in range(1 << deg)]

    def brute_force(self, m1, m2, level):
        for f in basis(level):
            if transfer(m1, alpha(m2, f)) != alpha(m2, transfer(m1, f)):
                return False
        return True

    def test_matches_polynomial_gcd(self):
        for p in self.POLYS:
            for q in self.POLYS:
                decision = operator_commute_check(
                    WindowMap.from_poly(p), WindowMap.from_poly(q), 6
                )
                coprime = str(poly_gcd(p, q)) == "1"
                assert decision.commute == coprime
                assert decision.level == 6
                if coprime:
                    assert decision.witness is None
                else:
                    assert isinstance(decision.witness, Word)

    def test_matches_relation_three(self):
        """The oracle's verdict is the (III) verdict of the relation suite."""
        for p in self.POLYS:
            for q in self.POLYS:
                decision = operator_commute_check(
                    WindowMap.from_poly(p), WindowMap.from_poly(q), 6
                )
                report = verify_relations(DynamicalSystem.from_polys([p, q]), 6)
                assert decision.commute == report.pair_details[0]["holds"], (p, q)

    def test_witness_reproduces_disagreement(self):
        decision = operator_commute_check(SHIFT, DOUBLE, 6)
        assert not decision.commute
        f = CylinderFunction.indicator(decision.witness)
        lhs = transfer(SHIFT, alpha(DOUBLE, f))
        rhs = alpha(DOUBLE, transfer(SHIFT, f))
        assert lhs != rhs

    def test_matches_basis_enumeration(self):
        pairs = [
            (SHIFT, LED),
            (SHIFT, DOUBLE),
            (LED, DOUBLE),
            (NONLINEAR, SHIFT),
            (SHIFT, NONLINEAR),
            (NONLINEAR, NONLINEAR),
        ]
        for m1, m2 in pairs:
            decision = operator_commute_check(m1, m2, 4)
            assert decision.commute == self.brute_force(m1, m2, 4)

    def test_nonlinear_maps_commute_but_operators_do_not(self):
        # every window map commutes with the shift, yet the averaging
        # identity can still fail when the rule is not linear
        assert SHIFT.compose(NONLINEAR).rule == NONLINEAR.compose(SHIFT).rule
        assert not operator_commute_check(NONLINEAR, SHIFT, 4).commute

    def test_errors(self):
        with pytest.raises(NotProgressive):
            operator_commute_check(WindowMap(2, 0b0011), SHIFT, 4)
        aff = WindowMap(2, 0b1001)
        with pytest.raises(NonCommutingMaps):
            operator_commute_check(aff, XOR2, 4)
        with pytest.raises(ValueError):
            operator_commute_check(LED, SHIFT, 1)

    def test_decision_is_frozen(self):
        decision = CommuteDecision(True, 4, None)
        with pytest.raises(Exception):
            decision.commute = False


class TestNumeratorOverflow:
    """No CLI input grows numerators this far, so the guards are driven directly."""

    BIG = CylinderFunction.from_values(1, [1 << 31, 1])

    def test_is_a_value_error_and_an_overflow_error(self):
        assert issubclass(NumeratorOverflow, ValueError)
        assert issubclass(NumeratorOverflow, OverflowError)

    def test_arithmetic_guard(self):
        for op in (lambda f: f * f, lambda f: f + f, lambda f: transfer(SHIFT, f)):
            with pytest.raises(NumeratorOverflow, match="^cylinder numerators grew"):
                op(self.BIG)

    def test_frame_gram_guard(self):
        with pytest.raises(NumeratorOverflow, match="^frame numerators grew"):
            verify_frame([self.BIG], SHIFT)

    def test_refined_gram_guard(self):
        big = np.full((2, 2), 1 << 31, dtype=np.int64)
        gram = (big, np.zeros_like(big))
        assert _refined_gram((big >> 2, gram[1]), SHIFT, gram, 2)[0].max() == 1 << 60
        with pytest.raises(NumeratorOverflow, match="^frame numerators grew"):
            _refined_gram(gram, SHIFT, gram, 2)
