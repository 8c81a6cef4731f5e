"""Tests for polynomial arithmetic over GF(2) and recurrence kernels."""

import itertools

import pytest

import starshift.budget as budget
import starshift.gf2poly as gf2poly
from starshift import (
    Gf2Poly,
    KernelTooLarge,
    PeriodicSeq,
    ZeroPolynomial,
    poly_factor,
    poly_gcd,
    recurrence_kernel,
)


def poly_from_coeffs(coeffs):
    """Build a polynomial from an ascending coefficient tuple."""
    bits = 0
    for i, c in enumerate(coeffs):
        bits |= (c & 1) << i
    return Gf2Poly(bits)


def all_polys(max_degree, nonzero=False):
    out = [
        poly_from_coeffs(c)
        for c in itertools.product((0, 1), repeat=max_degree + 1)
    ]
    if nonzero:
        out = [p for p in out if not p.is_zero]
    return out


def mul_oracle(a, b):
    """Schoolbook convolution over GF(2), independent of Gf2Poly.mul."""
    if a.is_zero or b.is_zero:
        return Gf2Poly.zero()
    da, db = a.degree, b.degree
    coeffs = [0] * (da + db + 1)
    for i in range(da + 1):
        for j in range(db + 1):
            coeffs[i + j] ^= a.coeff(i) & b.coeff(j)
    return poly_from_coeffs(coeffs)


def divisors_oracle(p):
    """All monic divisors of p found by trial division."""
    return [d for d in all_polys(p.degree, nonzero=True) if d.divides(p)]


def satisfies_recurrence(seq, poly, horizon):
    d = poly.degree
    return all(
        sum(poly.coeff(j) & seq.coord(k + j) for j in range(d + 1)) % 2 == 0
        for k in range(1, horizon + 1)
    )


class TestParseFormat:
    def test_round_trip_examples(self):
        for text in ("0", "1", "t", "1+t", "1+t+t^2", "t^2", "t+t^3", "1+t^5"):
            assert str(Gf2Poly.parse(text)) == text

    def test_round_trip_exhaustive(self):
        for p in all_polys(5):
            assert Gf2Poly.parse(str(p)) == p

    def test_parse_is_order_insensitive_and_xors_duplicates(self):
        assert Gf2Poly.parse("t^2+1") == Gf2Poly.parse("1+t^2")
        assert Gf2Poly.parse("t^0") == Gf2Poly.one()
        assert Gf2Poly.parse("t^1") == Gf2Poly.t()
        assert Gf2Poly.parse("t+t").is_zero

    def test_parse_bounds_the_exponent(self):
        assert Gf2Poly.parse("1+t^65536").degree == 1 << 16
        with pytest.raises(ValueError, match="^exponent 65537 over the limit of 2\\^16$"):
            Gf2Poly.parse("1+t^65537")

    def test_parse_reads_only_ascii_digit_exponents(self):
        assert Gf2Poly.parse("t^007") == Gf2Poly.parse("t^7")
        for text in ("t^1_0", "t^\u0663", "t^\u00b2", "t^+3", "t^3.0", "t^0x3"):
            with pytest.raises(ValueError, match="^cannot parse polynomial term"):
                Gf2Poly.parse(text)
        huge = "9" * 5000
        with pytest.raises(ValueError, match="^exponent %s over the limit of 2\\^16$" % huge):
            Gf2Poly.parse("t^" + huge)

    def test_parse_rejects_junk(self):
        for text in ("", "2", "x", "t^-1", "t^", "1++t", "t2"):
            with pytest.raises(ValueError):
                Gf2Poly.parse(text)


class TestArithmetic:
    def test_degree_and_coeff(self):
        p = Gf2Poly.parse("1+t+t^3")
        assert p.degree == 3
        assert [p.coeff(i) for i in range(5)] == [1, 1, 0, 1, 0]
        with pytest.raises(ZeroPolynomial):
            Gf2Poly.zero().degree

    def test_mul_against_convolution_oracle(self):
        polys = all_polys(4)
        for a in polys:
            for b in polys:
                assert a * b == mul_oracle(a, b)

    def test_ring_axioms_small(self):
        polys = all_polys(3)
        one, zero = Gf2Poly.one(), Gf2Poly.zero()
        for a in polys:
            assert a * one == a
            assert a * zero == zero
            assert a + a == zero
            for b in polys:
                assert a * b == b * a
                assert a + b == b + a

    def test_divmod_exhaustive(self):
        for a in all_polys(5):
            for b in all_polys(3, nonzero=True):
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.is_zero or r.degree < b.degree
                assert a % b == r
                assert a // b == q
        with pytest.raises(ZeroPolynomial):
            divmod(Gf2Poly.one(), Gf2Poly.zero())

    def test_pow(self):
        t = Gf2Poly.t()
        assert t**0 == Gf2Poly.one()
        assert t**3 == Gf2Poly.parse("t^3")
        p = Gf2Poly.parse("1+t")
        assert p**2 == Gf2Poly.parse("1+t^2")
        assert p**4 == Gf2Poly.parse("1+t^4")

    def test_divides(self):
        assert Gf2Poly.parse("1+t").divides(Gf2Poly.parse("1+t^2"))
        assert not Gf2Poly.parse("1+t+t^2").divides(Gf2Poly.parse("1+t^2"))


class TestGcd:
    def test_gcd_against_divisor_oracle(self):
        polys = all_polys(4, nonzero=True)
        for a in polys:
            for b in polys:
                g = poly_gcd(a, b)
                common = [d for d in divisors_oracle(a) if d.divides(b)]
                best = max(common, key=lambda d: d.degree)
                assert g == best
                for d in common:
                    assert d.divides(g)

    def test_gcd_with_zero(self):
        a = Gf2Poly.parse("1+t^2")
        assert poly_gcd(a, Gf2Poly.zero()) == a
        assert poly_gcd(Gf2Poly.zero(), a) == a

    def test_gcd_examples(self):
        assert poly_gcd(Gf2Poly.parse("t+t^2"), Gf2Poly.t()) == Gf2Poly.t()
        assert poly_gcd(Gf2Poly.parse("1+t^2"), Gf2Poly.parse("1+t")) == Gf2Poly.parse("1+t")
        assert poly_gcd(Gf2Poly.parse("1+t^2"), Gf2Poly.parse("1+t+t^2")) == Gf2Poly.one()


class TestFactor:
    def test_examples(self):
        f = poly_factor(Gf2Poly.parse("1+t^2"))
        assert f.factors == ((Gf2Poly.parse("1+t"), 2),)
        f = poly_factor(Gf2Poly.parse("t+t^2"))
        assert f.factors == ((Gf2Poly.t(), 1), (Gf2Poly.parse("1+t"), 1))
        f = poly_factor(Gf2Poly.parse("1+t+t^2"))
        assert f.factors == ((Gf2Poly.parse("1+t+t^2"), 1),)
        f = poly_factor(Gf2Poly.parse("1+t^4"))
        assert f.factors == ((Gf2Poly.parse("1+t"), 4),)

    def test_exhaustive_reconstruction_and_irreducibility(self):
        for p in all_polys(6, nonzero=True):
            if p == Gf2Poly.one():
                continue
            f = poly_factor(p)
            assert f.product() == p
            for factor, mult in f.factors:
                assert mult >= 1
                assert factor.degree >= 1
                # irreducible: no proper divisor of positive degree
                proper = [
                    d
                    for d in divisors_oracle(factor)
                    if not d.is_zero and d != Gf2Poly.one() and d != factor
                ]
                assert proper == []

    def test_factor_of_unit_and_zero(self):
        assert poly_factor(Gf2Poly.one()).factors == ()
        with pytest.raises(ZeroPolynomial):
            poly_factor(Gf2Poly.zero())


class TestRecurrenceKernel:
    def test_kernel_size_is_two_to_degree(self):
        for p in all_polys(6, nonzero=True):
            kernel = recurrence_kernel(p)
            deg = 0 if p == Gf2Poly.one() else p.degree
            assert len(kernel) == 1 << deg
            assert len(set(kernel)) == len(kernel)

    def test_kernel_elements_satisfy_recurrence(self):
        for p in all_polys(5, nonzero=True):
            if p == Gf2Poly.one():
                continue
            for s in recurrence_kernel(p):
                assert satisfies_recurrence(s, p, p.degree + 16)

    def test_kernel_is_complete_by_brute_force(self):
        """Every eventually periodic solution shows up: compare prefix sets."""
        for text in ("t", "1+t", "t+t^2", "1+t^2", "1+t+t^2", "t^2", "1+t^3"):
            p = Gf2Poly.parse(text)
            d = p.degree
            length = d + 8
            solutions = set()
            for bits in itertools.product((0, 1), repeat=length):
                if all(
                    sum(p.coeff(j) & bits[k + j] for j in range(d + 1)) % 2 == 0
                    for k in range(length - d)
                ):
                    solutions.add(bits)
            kernel_prefixes = {
                s.prefix(length).to_bits() for s in recurrence_kernel(p)
            }
            assert kernel_prefixes == solutions

    def test_kernel_is_group(self):
        for text in ("1+t^2", "1+t+t^2", "t+t^3"):
            kernel = set(recurrence_kernel(Gf2Poly.parse(text)))
            assert PeriodicSeq.zero() in kernel
            for a in kernel:
                for b in kernel:
                    assert a + b in kernel

    def test_known_kernels(self):
        as_strs = lambda p: [str(s) for s in recurrence_kernel(Gf2Poly.parse(p))]
        assert as_strs("t") == [":0", "1:0"]
        assert as_strs("1+t") == [":0", ":1"]
        assert as_strs("1") == [":0"]
        assert as_strs("1+t^2") == [":0", ":1", ":01", ":10"]
        assert as_strs("1+t+t^2") == [":0", ":011", ":101", ":110"]
        assert set(as_strs("1+t^3")) == {
            ":0", ":1", ":001", ":010", ":100", ":011", ":101", ":110",
        }

    def test_gcd_kernel_is_intersection(self):
        polys = [p for p in all_polys(4, nonzero=True)]
        for a in polys:
            for b in polys:
                ka = set(recurrence_kernel(a))
                kb = set(recurrence_kernel(b))
                kg = set(recurrence_kernel(poly_gcd(a, b)))
                assert ka & kb == kg

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            recurrence_kernel(Gf2Poly.zero())

    def test_listing_budget_admits_degree_12_and_refuses_13(self):
        assert (1 << 12) * (12 + (1 << 12)) <= budget.KERNEL_BUDGET < (1 << 13) * (13 + (1 << 13))
        budget.admit_kernel(12)
        with pytest.raises(KernelTooLarge, match="^a degree-13 kernel lists 2\\^13 elements"):
            budget.admit_kernel(13)

    def test_over_budget_kernel_is_refused_before_the_walk(self, monkeypatch):
        def refuse(width, next_bit):
            raise AssertionError("the kernel walk ran")

        monkeypatch.setattr(gf2poly, "_kernel_walk", refuse)
        for text in ("1+t^13", "t^40", "1+t^65536"):
            with pytest.raises(KernelTooLarge):
                recurrence_kernel(Gf2Poly.parse(text))
