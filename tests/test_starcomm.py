"""Tests for unique-completion commutation, independence and system certificates."""

import itertools
import random

import pytest

import starshift.dictionary as dictionary
from starshift import (
    DynamicalSystem,
    FiniteMapPair,
    Gf2Poly,
    IndependenceProfile,
    InvalidSystem,
    MonoidElement,
    NonCommutingMaps,
    PeriodicSeq,
    WindowMap,
    ZeroPolynomial,
    certify_system,
    enumerate_dictionaries,
    classify_dictionary,
    independence_profile,
    is_minimal,
    is_topologically_free,
    poly_gcd,
    recurrence_kernel,
    star_commute_finite,
    star_commute_windows,
    star_commutes_on_kernel,
)
from starshift.dictionary import progressive_mask


def star_oracle(size, f, g):
    """The defining property, checked literally: every agreement f(x1) = g(x2)
    admits exactly one y with g(y) = x1 and f(y) = x2."""
    for x1 in range(size):
        for x2 in range(size):
            if f[x1] == g[x2]:
                completions = [y for y in range(size) if g[y] == x1 and f[y] == x2]
                if len(completions) != 1:
                    return False
    return True


def injective_on_fibers(size, a, b):
    """b separates the points of every a-fiber."""
    for x in range(size):
        fiber = [y for y in range(size) if a[y] == x]
        if len({b[y] for y in fiber}) != len(fiber):
            return False
    return True


def bijective_between_fibers(size, a, b):
    """a maps each b-fiber bijectively onto the b-fiber of its image."""
    for x in range(size):
        dom = [y for y in range(size) if b[y] == x]
        cod = {y for y in range(size) if b[y] == a[x]}
        image = {a[y] for y in dom}
        if len(image) != len(dom) or image != cod:
            return False
    return True


def check_fiber_conditions(size, f, g, star):
    """*-commutation is bijectivity between the fibers of either map, for
    any commuting pair; it implies injectivity on the fibers of either
    map, but not conversely (see test_fiber_injectivity_alone_is_weaker)."""
    assert bijective_between_fibers(size, f, g) == star
    assert bijective_between_fibers(size, g, f) == star
    if star:
        assert injective_on_fibers(size, f, g) and injective_on_fibers(size, g, f)


def commuting_pairs(size):
    maps = list(itertools.product(range(size), repeat=size))
    for f in maps:
        for g in maps:
            if all(f[g[x]] == g[f[x]] for x in range(size)):
                yield f, g


def monic_polys(min_degree, max_degree):
    out = []
    for d in range(min_degree, max_degree + 1):
        for low in range(1 << d):
            out.append(Gf2Poly(low | (1 << d)))
    return out


def kernel_set_profile(a, b):
    """The independence profile by its definitions on explicit kernel sets:
    the kernel intersection, the sum set against the kernel of a*b, kernel
    bijectivity, and the first shared nonzero sequence."""
    ka, kb = set(recurrence_kernel(a)), set(recurrence_kernel(b))
    shared = sorted((s for s in ka & kb if not s.is_zero), key=lambda s: s.sort_key())
    return IndependenceProfile(
        strongly_independent=ka & kb == {PeriodicSeq.zero()},
        independent={s + t for s in ka for t in kb} == set(recurrence_kernel(a * b)),
        star_commute=star_commutes_on_kernel(a, b),
        shared_kernel_witness=shared[0] if shared else None,
    )


class TestFiniteStar:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteMapPair(2, (0, 2), (0, 1))  # out of range
        with pytest.raises(ValueError):
            FiniteMapPair(2, (0,), (0, 1))  # wrong arity
        with pytest.raises(NonCommutingMaps):
            FiniteMapPair(3, (1, 2, 0), (0, 0, 1))  # rotation vs non-commuting map

    def test_examples(self):
        rotations = FiniteMapPair(4, (1, 2, 3, 0), (2, 3, 0, 1))
        assert star_commute_finite(rotations).star

        identity = tuple(range(5))
        assert star_commute_finite(FiniteMapPair(5, identity, identity)).star

        constant = FiniteMapPair(2, (0, 0), (0, 0))
        decision = star_commute_finite(constant)
        assert not decision.star
        x1, x2, count = decision.witness
        assert count != 1
        assert constant.f[x1] == constant.g[x2]

    def test_exhaustive_agreement_with_definition(self):
        """On every commuting pair over carriers of size <= 4, the decision
        matches the literal unique-completion definition."""
        for size in (1, 2, 3, 4):
            checked = 0
            for f, g in commuting_pairs(size):
                decision = star_commute_finite(FiniteMapPair(size, f, g))
                assert decision.star == star_oracle(size, f, g)
                check_fiber_conditions(size, f, g, decision.star)
                checked += 1
            assert checked > 0

    def test_randomized_commuting_pairs(self):
        rng = random.Random(20260825)
        cases = 0
        while cases < 1000:
            size = rng.randint(2, 8)
            f = tuple(rng.randrange(size) for _ in range(size))
            if rng.random() < 0.7:
                # powers of a map always commute with it
                power = rng.randint(0, size)
                g = tuple(range(size))
                for _ in range(power):
                    g = tuple(f[y] for y in g)
            else:
                g = tuple(rng.randrange(size) for _ in range(size))
                if any(f[g[x]] != g[f[x]] for x in range(size)):
                    continue
            pair = FiniteMapPair(size, f, g)
            star = star_commute_finite(pair).star
            assert star == star_oracle(size, f, g)
            check_fiber_conditions(size, f, g, star)
            cases += 1

    def test_fiber_injectivity_alone_is_weaker(self):
        """For non-surjective maps, injectivity on fibers does not imply
        unique completion: this commuting pair is injective on every fiber
        of the other map, yet one diagram has no completion at all."""
        f, g = (0, 0, 2), (0, 1, 0)
        pair = FiniteMapPair(3, f, g)
        assert injective_on_fibers(3, f, g) and injective_on_fibers(3, g, f)
        decision = star_commute_finite(pair)
        assert not decision.star
        x1, x2, count = decision.witness
        assert count == 0

    def test_witness_is_a_failing_agreement(self):
        for size in (2, 3):
            for f, g in commuting_pairs(size):
                decision = star_commute_finite(FiniteMapPair(size, f, g))
                if decision.star:
                    assert decision.witness is None
                else:
                    x1, x2, count = decision.witness
                    assert f[x1] == g[x2]
                    actual = [y for y in range(size) if g[y] == x1 and f[y] == x2]
                    assert len(actual) == count != 1


class TestWindowStar:
    def test_shift_pairs(self):
        sigma = WindowMap.shift()
        led = WindowMap.from_poly(Gf2Poly.parse("1+t"))
        assert star_commute_windows(sigma, led).star
        decision = star_commute_windows(sigma, WindowMap.from_poly(Gf2Poly.parse("t+t^2")))
        assert not decision.star
        w1, w2 = decision.witness
        assert w1 != w2
        m = WindowMap.from_poly(Gf2Poly.parse("t+t^2"))
        assert sigma.apply(w1) == sigma.apply(w2)
        assert m.apply(w1) == m.apply(w2)

    def test_non_commuting_raises(self):
        aff = WindowMap(2, 0b1001)  # rule 1 + x1 + x2
        led = WindowMap.from_poly(Gf2Poly.parse("1+t"))
        with pytest.raises(NonCommutingMaps):
            star_commute_windows(aff, led)

    def test_matches_gcd_for_linear_maps(self):
        polys = monic_polys(1, 3)
        for a in polys:
            for b in polys:
                expected = poly_gcd(a, b) == Gf2Poly.one()
                decision = star_commute_windows(
                    WindowMap.from_poly(a), WindowMap.from_poly(b)
                )
                assert decision.star == expected

    def test_wide_second_image_keeps_its_key(self):
        """The sort key holds the second image whole: here it has 21 bits
        and the gcd is 1, so no two words may share both images."""
        m1 = WindowMap.from_poly(Gf2Poly.parse("t+t^2+t^15"))
        m2 = WindowMap.from_poly(Gf2Poly.parse("1+t"))
        decision = star_commute_windows(m1, m2)
        assert decision.star
        assert decision.witness is None

    def test_self_pair_never_stars(self):
        for text in ("t", "1+t", "1+t+t^2"):
            m = WindowMap.from_poly(Gf2Poly.parse(text))
            assert not star_commute_windows(m, m).star

    def test_shift_search_is_the_constant_term_on_every_linear_progressive_map(self):
        """The diagram search against the shift, the oracle of `analyze`'s gcd
        route, on all 1,022 linear progressive maps of windows 2-10: a map
        *-commutes with t exactly when its polynomial's constant term is 1."""
        sigma = WindowMap.shift()
        disagree = []
        for bits in range(2, 1 << 10):
            poly = Gf2Poly(bits)
            star = star_commute_windows(sigma, WindowMap.from_poly(poly)).star
            if star != bool(bits & 1) or star != independence_profile(Gf2Poly.t(), poly).star_commute:
                disagree.append(str(poly))
        assert disagree == []


def bipermutive_rule(n, f):
    """The table of rule(a·w·b) = a + f(w) + b, with f the 2^(n-2)-bit table of a map on n-2 bits."""
    rule = 0
    for v in range(1 << n):
        a, w, b = v >> (n - 1), (v >> 1) & ((1 << (n - 2)) - 1), v & 1
        rule |= ((a ^ (f >> w) ^ b) & 1) << v
    return rule


def shift_oracle_maps():
    """(label, map) pairs: every progressive map of windows 2-4, every linear
    progressive map of windows 5-10, 300 seeded nonlinear progressive maps of
    windows 5-13 and 300 seeded nonlinear bipermutive maps of windows 3-12.
    Random progressive maps are almost never left-permutive, so the
    bipermutive ones carry the True side."""
    maps = [("small", d.to_window_map()) for n in range(2, 5) for d in enumerate_dictionaries(n, "progressive")]
    maps += [("linear", WindowMap.from_poly(Gf2Poly(bits))) for bits in range(1 << 4, 1 << 10)]
    rng = random.Random(24)
    nonlinear = []
    while len(nonlinear) < 300:
        n = rng.randint(5, 13)
        m = WindowMap(n, progressive_mask(n, rng.getrandbits(1 << (n - 1))))
        if dictionary._linear_poly(n, m.rule) is None:
            nonlinear.append(("nonlinear", m))
    bipermutive = []
    while len(bipermutive) < 300:
        n = rng.randint(3, 12)
        m = WindowMap(n, bipermutive_rule(n, rng.getrandbits(1 << (n - 2))))
        if dictionary._linear_poly(n, m.rule) is None:
            bipermutive.append(("bipermutive", m))
    return maps + nonlinear + bipermutive


class TestShiftRuleTest:
    """`WindowMap.star_commutes_with_shift`, the rule test `analyze` reads,
    against the word-level search it replaced there."""

    def test_equals_the_search(self):
        sigma = WindowMap.shift()
        counts = {}
        disagree = []
        try:
            for label, m in shift_oracle_maps():
                star = m.star_commutes_with_shift
                if star != star_commute_windows(sigma, m).star:
                    disagree.append(repr(m))
                if label == "linear" and star != bool(m.linear_poly.bits & 1):
                    disagree.append(repr(m))
                counts[label, star] = counts.get((label, star), 0) + 1
        finally:
            dictionary._image_table.cache_clear()
        assert disagree == []
        assert counts[("small", True)] == 22 and counts[("small", False)] == 254
        assert counts[("linear", True)] == counts[("linear", False)] == 504
        assert counts[("bipermutive", True)] == 300

    def test_progressive_is_the_stride_one_test(self):
        """`is_progressive` shares the permutivity helper; it keeps the even-bit
        mask expression it had, on the same maps and every rule of windows 1-3."""
        oracle_maps = [m for _, m in shift_oracle_maps()]
        every_rule = [WindowMap(n, rule) for n in (1, 2, 3) for rule in range(1 << (1 << n))]
        for m in oracle_maps + every_rule:
            evens = ((1 << (1 << m.window)) - 1) // 3
            assert m.is_progressive == (((m.rule ^ (m.rule >> 1)) & evens) == evens)
        assert all(m.is_progressive for m in oracle_maps)
        assert sum(m.is_progressive for m in every_rule) == 2 + 4 + 16


class TestKernelStar:
    def test_examples(self):
        t = Gf2Poly.t()
        assert star_commutes_on_kernel(t, Gf2Poly.parse("1+t"))
        assert star_commutes_on_kernel(t, Gf2Poly.parse("1+t+t^2"))
        assert not star_commutes_on_kernel(t, Gf2Poly.parse("t+t^2"))
        assert not star_commutes_on_kernel(t, Gf2Poly.parse("t^2"))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            star_commutes_on_kernel(Gf2Poly.zero(), Gf2Poly.one())

    def test_triple_route_agreement(self):
        """Kernel bijectivity, word-level diagram search and coprimality all
        give the same verdict on monic pairs."""
        polys = monic_polys(1, 3)
        for a in polys:
            for b in polys:
                by_gcd = poly_gcd(a, b) == Gf2Poly.one()
                by_kernel = star_commutes_on_kernel(a, b)
                by_diagram = star_commute_windows(
                    WindowMap.from_poly(a), WindowMap.from_poly(b)
                ).star
                assert by_kernel == by_diagram == by_gcd


class TestIndependence:
    def test_examples(self):
        t = Gf2Poly.t()
        profile = independence_profile(t, Gf2Poly.parse("1+t^2"))
        assert profile.strongly_independent and profile.independent and profile.star_commute
        assert profile.shared_kernel_witness is None

        profile = independence_profile(
            Gf2Poly.parse("1+t^2"), Gf2Poly.parse("1+t+t^2")
        )
        assert profile.strongly_independent and profile.independent and profile.star_commute

        profile = independence_profile(Gf2Poly.parse("1+t^2"), Gf2Poly.parse("1+t"))
        assert not profile.strongly_independent
        assert not profile.independent
        assert not profile.star_commute
        assert str(profile.shared_kernel_witness) == ":1"

    def test_flags_coincide_on_monic_pairs(self):
        for a in monic_polys(1, 4):
            for b in monic_polys(1, 4):
                profile = independence_profile(a, b)
                expected = poly_gcd(a, b) == Gf2Poly.one()
                assert profile.strongly_independent == expected
                assert profile.independent == expected
                assert profile.star_commute == expected
                assert (profile.shared_kernel_witness is None) == expected

    def test_matches_kernel_sets_on_monic_pairs(self):
        for a in monic_polys(1, 4):
            for b in monic_polys(1, 4):
                assert independence_profile(a, b) == kernel_set_profile(a, b)

    def test_shared_witness_lies_in_both_kernels(self):
        a, b = Gf2Poly.parse("t+t^2"), Gf2Poly.parse("t^2+t^3")
        profile = independence_profile(a, b)
        w = profile.shared_kernel_witness
        assert w is not None and not w.is_zero
        assert w in set(recurrence_kernel(a))
        assert w in set(recurrence_kernel(b))

    def test_product_law(self):
        """Star-commuting with a product is star-commuting with each factor."""
        small = monic_polys(1, 2)
        for f in small:
            for g in small:
                for h in small:
                    whole = star_commutes_on_kernel(f, g * h)
                    parts = star_commutes_on_kernel(f, g) and star_commutes_on_kernel(f, h)
                    assert whole == parts

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            independence_profile(Gf2Poly.zero(), Gf2Poly.t())


class TestMonoidElement:
    def test_generator_and_relative_primality(self):
        e1 = MonoidElement.generator(0, 3)
        e2 = MonoidElement.generator(1, 3)
        assert e1.exponents == (1, 0, 0)
        assert e1.relatively_prime(e2)
        assert not MonoidElement((1, 1, 0)).relatively_prime(MonoidElement((0, 1, 2)))
        assert MonoidElement((0, 0, 0)).relatively_prime(e1)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            MonoidElement((1, -1))


class TestDynamicalSystem:
    def test_from_polys(self):
        sys2 = DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("1+t")])
        assert sys2.rank == 2
        assert sys2.names == ("p1", "p2")
        assert sys2.poly_of(MonoidElement((1, 0))) == Gf2Poly.t()
        assert sys2.poly_of(MonoidElement((2, 1))) == Gf2Poly.parse("t^2") * Gf2Poly.parse(
            "1+t"
        )
        assert sys2.map_of(MonoidElement((0, 2))).linear_poly == Gf2Poly.parse("1+t^2")

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicalSystem.from_polys([Gf2Poly.t()], names=["a", "b"])
        with pytest.raises(ValueError):
            DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.t()], names=["a", "a"])
        with pytest.raises(ValueError):
            DynamicalSystem.from_polys([Gf2Poly.one()])
        with pytest.raises(ValueError):
            sys2 = DynamicalSystem.from_polys([Gf2Poly.t()])
            sys2.poly_of(MonoidElement((1, 2)))

    def test_identity_element(self):
        sys2 = DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("1+t")])
        assert sys2.poly_of(MonoidElement((0, 0))) == Gf2Poly.one()


class TestMinimality:
    def test_valid_systems_are_minimal(self):
        for polys in (["t"], ["t", "1+t"], ["t", "1+t^2", "1+t+t^2"]):
            sys_n = DynamicalSystem.from_polys([Gf2Poly.parse(p) for p in polys])
            result = is_minimal(sys_n)
            assert result.minimal
            assert "degree" in result.argument

    def test_empty_system_is_not_minimal(self):
        result = is_minimal(DynamicalSystem((), ()))
        assert not result.minimal

    def test_invalid_system_rejected(self):
        sys_bad = DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("t+t^2")])
        with pytest.raises(InvalidSystem):
            is_minimal(sys_bad)


class TestTopologicalFreeness:
    def test_free_examples(self):
        sys2 = DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("1+t")])
        result = is_topologically_free(sys2)
        assert result.free
        assert result.rank == 2
        assert result.witness is None
        assert result.irreducibles == (Gf2Poly.t(), Gf2Poly.parse("1+t"))
        assert result.exponent_matrix == ((1, 0), (0, 1))

    def test_power_collision(self):
        sys2 = DynamicalSystem.from_polys([Gf2Poly.parse("t^2"), Gf2Poly.parse("t^3")])
        result = is_topologically_free(sys2)
        assert not result.free
        p, q = result.witness
        assert p != q
        assert sys2.poly_of(p) == sys2.poly_of(q)

    def test_repeated_generator_collision(self):
        shared = Gf2Poly.parse("t+t^2")
        sys2 = DynamicalSystem.from_polys([shared, shared])
        result = is_topologically_free(sys2)
        assert not result.free
        p, q = result.witness
        assert p != q
        assert sys2.poly_of(p) == sys2.poly_of(q)

    def test_freeness_matches_polynomial_injectivity_small(self):
        """Brute-force: enumerate small exponent vectors and look for collisions."""
        cases = [
            ["t", "1+t"],
            ["t^2", "t^3"],
            ["t", "t+t^2"],
            ["1+t", "1+t^2"],
            ["t", "1+t", "t+t^2"],
        ]
        for texts in cases:
            polys = [Gf2Poly.parse(s) for s in texts]
            sys_n = DynamicalSystem.from_polys(polys)
            seen = {}
            collision = False
            for exps in itertools.product(range(4), repeat=len(polys)):
                value = sys_n.poly_of(MonoidElement(exps))
                if value in seen and seen[value] != exps:
                    collision = True
                    break
                seen[value] = exps
            result = is_topologically_free(sys_n)
            assert result.free == (not collision)
            if not result.free:
                p, q = result.witness
                assert p != q and sys_n.poly_of(p) == sys_n.poly_of(q)


class TestCertificate:
    def test_valid_pair(self):
        cert = certify_system(
            DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("1+t")])
        )
        assert cert.valid
        assert cert.witnesses == ()
        assert cert.minimal
        assert cert.topologically_free
        assert "minimal" in cert.simplicity_report
        assert "simple" in cert.simplicity_report

    def test_valid_triple(self):
        cert = certify_system(
            DynamicalSystem.from_polys(
                [Gf2Poly.t(), Gf2Poly.parse("1+t^2"), Gf2Poly.parse("1+t+t^2")]
            )
        )
        assert cert.valid and cert.minimal and cert.topologically_free
        assert cert.rank_witness["rank"] == 3

    def test_invalid_pair_with_gcd_witness(self):
        cert = certify_system(
            DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("t+t^2")])
        )
        assert not cert.valid
        assert cert.minimal is None
        [(a, b, g)] = cert.witnesses
        assert (a, b) == ("p1", "p2")
        assert g == Gf2Poly.t()
        assert "not a valid system" in cert.simplicity_report

    def test_json_shape(self):
        cert = certify_system(
            DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("t+t^2")])
        )
        data = cert.to_json_dict()
        assert data["witnesses"] == [{"pair": ["p1", "p2"], "gcd": "t"}]
        assert set(data) == {
            "valid",
            "witnesses",
            "minimal",
            "minimality_argument",
            "topologically_free",
            "rank_witness",
            "simplicity_report",
        }
