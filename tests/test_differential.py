"""Differential tests: the image-table relation suite against the dense oracle.

`dense_oracle` keeps the `LevelOperator` route of every relation check.
The reports of both routes must agree exactly, witnesses included, on the
systems the other tests use and on deliberately broken inputs: tampered
image tables, a tampered composition operator and broken frames, so that
every relation fails somewhere and its witness order and value are
compared.  The same-fiber pairs the suite reads from its fiber listing
are compared with a general equi-join of the image tables.  The rule
completions read off the rule integer as bytes are compared with the
array route they replaced, and so are the fiber tables built from them.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import starshift.cylinder as cylinder
import starshift.dictionary as dictionary
import starshift.matrixmodel as matrixmodel
from dense_oracle import (
    dense_annihilating_bump,
    dense_expectation_defect,
    dense_verify_frame,
    dense_verify_relations,
)
from starshift import (
    CylinderFunction,
    Dictionary,
    DynamicalSystem,
    Gf2Poly,
    LevelOperator,
    MonoidElement,
    NumeratorOverflow,
    PeriodicSeq,
    QuadScalar,
    WindowMap,
    Word,
    annihilating_bump,
    basis,
    enumerate_dictionaries,
    expectation_defect,
    refine_frame,
    standard_frame,
    verify_frame,
    verify_relations,
)
from starshift.cli import main

# Every system whose relations the other tests check.
SYSTEMS = [("t", "1+t"), ("t", "t+t^2"), ("t",), ("t", "1+t", "1+t+t^2")]


def system(polys):
    return DynamicalSystem.from_polys([Gf2Poly.parse(p) for p in polys])


def oracle_output(polys, level):
    """The exit code and `verify --json` text the dense route gives."""
    report = dense_verify_relations(system(polys), level)
    payload = {"kind": "relations", "generators": [str(Gf2Poly.parse(p)) for p in polys]}
    payload.update(report.to_json_dict())
    code = 0 if all(payload["relations"].values()) else 1
    return code, json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("level", [6, 7, 8, 9])
@pytest.mark.parametrize("polys", SYSTEMS, ids="_".join)
def test_verify_json_matches_dense_route(capsys, polys, level):
    code = main(["verify", *polys, "--level", str(level), "--json"])
    out = capsys.readouterr().out
    assert (code, out) == oracle_output(polys, level)


def outcome(fn, *args):
    """The report as JSON, or the type and message of the error raised."""
    try:
        return fn(*args).to_json_dict()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def swapped(table, y1, y2):
    table = table.copy()
    table[[y1, y2]] = table[[y2, y1]]
    table.setflags(write=False)
    return table


def tamper_tables(monkeypatch, targets):
    """Swap two entries of the image tables keyed (map, length) in `targets`."""
    original = dictionary._image_table

    def tampered(m, length):
        table = original(m, length)
        if (m, length) in targets:
            table = swapped(table, *targets[m, length])
        return table

    monkeypatch.setattr(dictionary, "_image_table", tampered)


def near_swap(table):
    """The first word and the next word with another image."""
    return 0, int(np.flatnonzero(table != table[0])[0])


def far_swap(table):
    """The first word and the last word with another image."""
    return 0, int(np.flatnonzero(table != table[0])[-1])


def falling_swap(table):
    """The first word with a nonzero image and the last word with image zero."""
    return int(np.flatnonzero(table)[0]), int(np.flatnonzero(table == 0)[-1])


def assert_routes_agree(polys, level):
    sys_ = system(polys)
    new = outcome(verify_relations, sys_, level)
    assert new == outcome(dense_verify_relations, sys_, level)
    return new


TAMPER_CASES = [
    # (generator index, which table, which swap, relations besides III that fail)
    (0, "top", near_swap, {"II"}),
    (1, "top", far_swap, {"II"}),
    (0, "level", near_swap, set()),
    (1, "level", far_swap, {"IV", "orthonormal_matrix_units"}),
]


@pytest.mark.parametrize("gen, where, swap, fails", TAMPER_CASES)
@pytest.mark.parametrize("polys", [("t", "1+t"), ("t", "t+t^2"), ("t", "1+t", "1+t+t^2")], ids="_".join)
def test_tampered_tables_fail_alike(monkeypatch, polys, gen, where, swap, fails):
    """The top table feeds I, II and III; the level table feeds III, IV and the matrix units."""
    level = 6
    sys_ = system(polys)
    m = sys_.generators[gen]
    if where == "top":
        key = (m, level + m.window - 1)
    else:
        key = (m, level)
    tamper_tables(monkeypatch, {key: swap(dictionary._image_table(*key))})
    report = assert_routes_agree(polys, level)
    failing = {name for name, holds in report["relations"].items() if not holds}
    assert failing == fails | {"III"}
    assert set(report["witnesses"]) == failing


def test_tampered_tables_reach_every_table_relation(monkeypatch):
    """II, III, IV and the matrix units each fail with a witness."""
    polys, level = ("t", "1+t"), 6
    m0, m1 = system(polys).generators
    keys = [(m0, level + 1), (m1, level)]
    tamper_tables(monkeypatch, {key: far_swap(dictionary._image_table(*key)) for key in keys})
    report = assert_routes_agree(polys, level)
    assert set(report["witnesses"]) == {"II", "III", "IV", "orthonormal_matrix_units"}


@pytest.mark.parametrize("swap", [near_swap, far_swap, falling_swap])
@pytest.mark.parametrize("polys", [("t", "1+t"), ("1+t+t^2",)], ids="_".join)
def test_tampered_alpha_fails_relation_one_alike(monkeypatch, polys, swap):
    """Swapped images put the witness of (I) in the isometry's column or in alpha's row."""
    level = 6
    m = system(polys).generators[-1]
    length = level + m.window - 1
    moved = swapped(m.image_table(length), *swap(m.image_table(length)))
    real = cylinder.alpha

    def tampered_alpha(m_, f):
        if m_ == m and f.level + m_.window - 1 == length:
            return CylinderFunction(length, f.num_a[moved], f.num_b[moved], f.den)
        return real(m_, f)

    monkeypatch.setattr(cylinder, "alpha", tampered_alpha)
    monkeypatch.setattr(matrixmodel, "alpha", tampered_alpha)
    report = assert_routes_agree(polys, level)
    assert report["relations"]["I"] is False
    assert report["witnesses"]["I"]["pair"] == [system(polys).names[-1]]


def general_join(left, right):
    """All index pairs (i, j) with left[i] == right[j], grouped by value."""
    size = int(max(left.max(initial=0), right.max(initial=0))) + 1
    lcount = np.bincount(left, minlength=size)
    rcount = np.bincount(right, minlength=size)
    per = lcount * rcount
    value = np.repeat(np.arange(size), per)
    offset = np.arange(value.size) - np.repeat(np.cumsum(per) - per, per)
    width = rcount[value]
    li = np.argsort(left, kind="stable")[(np.cumsum(lcount) - lcount)[value] + offset // width]
    ri = np.argsort(right, kind="stable")[(np.cumsum(rcount) - rcount)[value] + offset % width]
    return li, ri


def assert_same_pairs(m_left, left_length, m_right, right_length):
    """The fiber listing pairs the same words as the join of the two image tables."""
    rows, cols = cylinder._pairs(
        cylinder._fibers(m_left, left_length), cylinder._fibers(m_right, right_length)
    )
    li, ri = general_join(m_left.image_table(left_length), m_right.image_table(right_length))
    assert rows.size == li.size
    assert np.array_equal(
        np.sort((rows << right_length) | cols), np.sort((li << right_length) | ri)
    )


PROGRESSIVE = [
    d.to_window_map() for n in (2, 3, 4) for d in enumerate_dictionaries(n, "progressive")
]


def test_fiber_pairs_match_join_on_progressive_maps():
    for m in PROGRESSIVE:
        for length in range(m.window - 1, 11):
            assert_same_pairs(m, length, m, length)


@pytest.mark.parametrize(
    "pi, pj", [("t", "1+t+t^2"), ("1+t+t^2", "t"), ("1+t", "1+t+t^3"), ("t^2", "1+t^2")]
)
def test_fiber_pairs_match_join_across_windows(pi, pj):
    """The (III) pairs: words of mj and of mi that share an image."""
    mi, mj = (WindowMap.from_poly(Gf2Poly.parse(p)) for p in (pi, pj))
    di, dj = mi.window - 1, mj.window - 1
    for k in range(6, 11):
        assert_same_pairs(mj, k - di + dj, mi, k)


@pytest.mark.parametrize("swap", [near_swap, far_swap, falling_swap])
@pytest.mark.parametrize("polys", [("t", "1+t"), ("t", "t+t^2"), ("t", "1+t", "1+t+t^2")], ids="_".join)
def test_fiber_pairs_match_join_on_swapped_tables(monkeypatch, polys, swap):
    """A swap keeps every fiber size, so the listing still reads the tampered table."""
    level = 6
    gens = system(polys).generators
    targets = {}
    for m in gens:
        for length in (level, level + m.window - 1):
            targets[m, length] = swap(dictionary._image_table(m, length))
    tamper_tables(monkeypatch, targets)
    for m in gens:
        for length in (level, level + m.window - 1):
            assert_same_pairs(m, length, m, length)
    for mi in gens:
        for mj in gens:
            assert_same_pairs(mj, level - mi.window + mj.window, mi, level)


def test_fiber_listing_is_the_preimage_table():
    """Read from the image table or derived from the rule, the fibers agree."""
    for m in PROGRESSIVE:
        for out in range(8):
            assert np.array_equal(
                cylinder._fibers(m, out + m.window - 1), cylinder._preimage_table(m, out)
            )


LINEAR = [
    WindowMap.from_poly(Gf2Poly((1 << d) | low)) for d in range(8) for low in range(1 << d)
]


def test_coset_fibers_are_the_rule_walk():
    """A linear map's fibers as kernel cosets equal the rule walk at output lengths 0-10."""
    assert len(LINEAR) == 255 and all(m.is_progressive for m in LINEAR)
    for m in LINEAR:
        for out in range(11):
            got = cylinder._preimage_table(m, out)
            assert got.dtype == np.int64
            assert np.array_equal(got, cylinder._preimage_walk(m, out)), (m, out)


def oracle_completions(m):
    """The array route `_zero_completions` replaced: the odd entries of the unpacked rule, flipped."""
    return 1 - dictionary._rule_bits(m)[1::2]


def seeded_nonlinear_progressive(count, seed=23):
    rng = random.Random(seed)
    maps = []
    while len(maps) < count:
        n = rng.randrange(5, 13)
        m = Dictionary(n, dictionary.progressive_mask(n, rng.getrandbits(1 << (n - 1)))).to_window_map()
        if m.linear_poly is None:
            maps.append(m)
    return maps


COMPLETION_MAPS = (
    PROGRESSIVE
    + [WindowMap.from_poly(Gf2Poly((1 << (n - 1)) | low)) for n in range(5, 11) for low in range(1 << (n - 1))]
    + seeded_nonlinear_progressive(300)
)


def test_completions_are_the_array_route():
    """The bytes read off the rule integer equal the unpacked rule's flipped odd entries."""
    assert len(COMPLETION_MAPS) == 276 + 1008 + 300
    for m in COMPLETION_MAPS:
        got = dictionary._zero_completions(m)
        assert type(got) is bytes and len(got) == m.fiber_count
        assert np.array_equal(np.frombuffer(got, np.uint8), oracle_completions(m)), m


@pytest.mark.parametrize("route", ["_preimage_walk", "_preimage_table"])
def test_preimage_routes_on_the_bytes_match_the_array_route(monkeypatch, route):
    """Both preimage routes give the same tables from the bytes as from the array route's completions."""
    maps = [m for m in COMPLETION_MAPS if route == "_preimage_walk" or m.linear_poly is not None]
    got = {(m, out): getattr(cylinder, route)(m, out) for m in maps for out in range(7)}
    monkeypatch.setattr(cylinder, "_zero_completions", lambda m: oracle_completions(m).tobytes())
    for (m, out), table in got.items():
        assert np.array_equal(table, getattr(cylinder, route)(m, out)), (m, out)


def scaled_member(frame):
    frame = list(frame)
    frame[0] = frame[0].scale(QuadScalar.of(2))
    return frame


def spread_member(frame):
    frame = list(frame)
    frame[-1] = frame[-1] + frame[0]
    return frame


@pytest.mark.parametrize("broken", [scaled_member, spread_member])
@pytest.mark.parametrize("polys", [("t", "1+t"), ("t", "1+t+t^2")], ids="_".join)
def test_broken_frames_fail_alike(monkeypatch, polys, broken):
    """A broken generator frame fails IV, the matrix units and frame independence alike."""
    target = system(polys).generators[-1]
    real = cylinder.standard_frame

    def frames(m):
        return broken(real(m)) if m == target else real(m)

    for module in (cylinder, matrixmodel):
        monkeypatch.setattr(module, "standard_frame", frames)
    report = assert_routes_agree(polys, 6)
    assert report["relations"]["IV"] is False
    assert report["relations"]["frame_independence"] is False
    if broken is spread_member:
        assert report["relations"]["orthonormal_matrix_units"] is False


def test_broken_frame_is_reported_alike(monkeypatch, capsys):
    """A broken frame fails IV with a witness on both routes, so `verify` exits 1, not 2."""
    real = cylinder.standard_frame
    monkeypatch.setattr(matrixmodel, "standard_frame", lambda m: scaled_member(real(m)))
    monkeypatch.setattr(cylinder, "standard_frame", lambda m: scaled_member(real(m)))
    polys = ("t", "1+t")
    report = assert_routes_agree(polys, 6)
    assert report["relations"]["IV"] is False
    assert report["witnesses"]["IV"]["pair"] == ["p1"]
    assert main(["verify", *polys, "--level", "6", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["witnesses"] == report["witnesses"]


def test_relation_suite_never_calls_verify_frame(monkeypatch, capsys):
    """IV and the matrix units decide the generator frames, so `verify_frame` never runs."""

    def refuse(*args):
        raise AssertionError("verify_frame was called")

    expected = [oracle_output(polys, 7) for polys in SYSTEMS]
    monkeypatch.setattr(cylinder, "verify_frame", refuse)
    monkeypatch.setattr(matrixmodel, "verify_frame", refuse, raising=False)
    for polys, (code, out) in zip(SYSTEMS, expected):
        got = main(["verify", *polys, "--level", "7", "--json"])
        assert (got, *capsys.readouterr()) == (code, out, ""), polys


def negated_member(frame):
    return [frame[0].scale(QuadScalar.of(-1))] + list(frame[1:])


def dropped_member(frame):
    return list(frame[1:])


def merged_members(frame):
    return [frame[0] + frame[1]] + list(frame[2:])


def mixed_members(frame):
    """(nu0 + nu1) / sqrt2 and (nu0 - nu1) / sqrt2: the same Gram, overlapping supports."""
    half_root = QuadScalar.of(0, Fraction(1, 2))
    mixed = [(frame[0] + frame[1]).scale(half_root), (frame[0] - frame[1]).scale(half_root)]
    return mixed + list(frame[2:])


def zeroed_member(frame):
    return [frame[0].scale(QuadScalar.of(0))] + list(frame[1:])


def swapped_members(frame):
    return [frame[1], frame[0]] + list(frame[2:])


BROKEN_FRAMES = [
    scaled_member,
    spread_member,
    negated_member,
    dropped_member,
    merged_members,
    mixed_members,
    zeroed_member,
    swapped_members,
]


@pytest.mark.parametrize(
    "polys", [("t", "1+t"), ("t", "1+t+t^2"), ("1+t", "t^2"), ("t",), ("1+t+t^2",)], ids="_".join
)
def test_broken_generator_frames_are_decided_by_iv_and_matrix_units(monkeypatch, polys):
    """Both routes report each broken frame alike, and every non-frame fails IV or the matrix units."""
    real = cylinder.standard_frame
    rejected = 0
    for target in system(polys).generators:
        for broken in BROKEN_FRAMES:
            frame = broken(real(target))
            refused = frame_outcome(verify_frame, frame, target) is not None

            def frames(m, target=target, frame=frame):
                return frame if m == target else real(m)

            with monkeypatch.context() as patch:
                for module in (cylinder, matrixmodel):
                    patch.setattr(module, "standard_frame", frames)
                report = assert_routes_agree(polys, 6)
            if refused:
                rejected += 1
                relations = report["relations"]
                assert not (relations["IV"] and relations["orthonormal_matrix_units"]), (
                    target,
                    broken.__name__,
                )
    # Negating or swapping members keeps a Parseval frame; the six other breaks do not.
    assert rejected == 6 * len(system(polys).generators)


def gram_of(frame):
    """A frame's Gram at its own level and common denominator, as the suite forms it."""
    prefix = max(nu.level for nu in frame)
    den = math.lcm(*(nu.den for nu in frame))
    return cylinder._frame_gram(frame, prefix, den), prefix, den


SMALL = [m for m in PROGRESSIVE if m.window <= 3]


def int64_gram(frame, level, den):
    """The frame Gram by exact int64 products, as `_frame_gram` formed it before BLAS."""
    lifted = [nu.embed(level) for nu in frame]
    a = np.stack([f.num_a * (den // f.den) for f in lifted])
    b = np.stack([f.num_b * (den // f.den) for f in lifted])
    return a.T @ a + 2 * (b.T @ b), a.T @ b + b.T @ a


def test_float_gram_is_the_int64_gram():
    """The float64 Gram is exact on every standard frame of windows 1-6 and every broken variant."""
    for window in range(1, 7):
        real = standard_frame(WindowMap.from_poly(Gf2Poly(1 << (window - 1))))
        frames = [real] + [broken(real) for broken in BROKEN_FRAMES if window > 1]
        for frame in frames:
            prefix = max(nu.level for nu in frame)
            den = math.lcm(*(nu.den for nu in frame))
            for level, scale in ((prefix, 1), (prefix + 1, 3)):
                got = cylinder._frame_gram(frame, level, den * scale)
                want = int64_gram(frame, level, den * scale)
                for g, w in zip(got, want):
                    assert g.dtype == np.int64 and np.array_equal(g, w), (window, len(frame))


def test_stacked_gram_is_the_int64_gram_on_mixed_members():
    """Members of mixed levels and denominators stack, lift and rescale to the int64 Gram."""
    third = CylinderFunction.from_values(0, [Fraction(1, 3)])
    half = CylinderFunction.from_values(1, [Fraction(1, 2), QuadScalar.of(0, Fraction(-3, 2))])
    for window in range(1, 5):
        real = standard_frame(WindowMap.from_poly(Gf2Poly(1 << (window - 1))))
        for frame in ([third] + real, real + [half], [half, third] + real, [third, half]):
            prefix = max(nu.level for nu in frame)
            den = math.lcm(*(nu.den for nu in frame))
            assert len({nu.level for nu in frame}) > 1 or len({nu.den for nu in frame}) > 1
            for level, scale in ((prefix, 1), (prefix + 1, 1), (prefix + 2, 5)):
                got = cylinder._frame_gram(frame, level, den * scale)
                want = int64_gram(frame, level, den * scale)
                for g, w in zip(got, want):
                    assert g.dtype == np.int64 and np.array_equal(g, w), (window, len(frame), level)


@pytest.mark.parametrize("members", [1, 2, 5])
def test_frame_gram_guard_is_exact_at_its_bound(members):
    """The guard admits 3 M top^2 < 2^53, where the float64 Gram is still exact, and refuses the rest."""
    top = math.isqrt(((1 << 53) - 1) // (3 * members))
    assert 3 * members * top * top < 1 << 53 <= 3 * members * (top + 1) ** 2
    for value in (top, top + 1):
        num = np.array([value, 1], dtype=np.int64)
        member = CylinderFunction(1, num, num.copy(), 1)
        frame = [member] * members
        if value == top:
            ga, gb = cylinder._frame_gram(frame, 1, 1)
            assert int(ga[0, 0]) == 3 * members * top * top
            assert int(gb[0, 0]) == 2 * members * top * top
            assert all(np.array_equal(g, w) for g, w in zip((ga, gb), int64_gram(frame, 1, 1)))
        else:
            with pytest.raises(NumeratorOverflow, match="^frame numerators grew"):
                cylinder._frame_gram(frame, 1, 1)


@pytest.mark.parametrize("broken", [list, scaled_member, spread_member])
def test_refined_gram_is_the_gram_of_the_refined_frame(monkeypatch, broken):
    """The product of the factor Grams equals the Gram of the built product frame."""
    # Broken frames are no frames, so `refine_frame` forms its product unchecked.
    monkeypatch.setattr(cylinder, "verify_frame", lambda frame, m: None)
    for m1 in SMALL:
        for m2 in SMALL:
            frame1, frame2 = broken(standard_frame(m1)), broken(standard_frame(m2))
            (gram1, p1, den1), (gram2, p2, den2) = gram_of(frame1), gram_of(frame2)
            refined = refine_frame(frame1, m1, frame2, m2)
            assert max(nu.level for nu in refined) == max(p1, p2 + m1.window - 1)
            den = math.lcm(den1 * den2, *(nu.den for nu in refined))
            rescale = (den // (den1 * den2)) ** 2
            for prefix in (max(p1, p2 + m1.window - 1), p1 + p2 + m1.window):
                ra, rb = cylinder._refined_gram(gram1, m1, gram2, prefix)
                ea, eb = cylinder._frame_gram(refined, prefix, den)
                assert np.array_equal(ra * rescale, ea), (m1, m2)
                assert np.array_equal(rb * rescale, eb), (m1, m2)


def test_relation_suite_builds_no_refined_frame(monkeypatch, capsys):
    """Frame independence reads the factor Grams, so `verify` never refines a frame."""
    polys = ("t", "1+t", "1+t+t^2")
    code, out = oracle_output(polys, 7)

    def refuse(*args):
        raise AssertionError("a refined frame was built")

    monkeypatch.setattr(cylinder, "refine_frame", refuse)
    monkeypatch.setattr(matrixmodel, "refine_frame", refuse, raising=False)
    got = main(["verify", *polys, "--level", "7", "--json"])
    assert (got, *capsys.readouterr()) == (code, out, "")


SHIFT = WindowMap.shift()
LED = WindowMap.from_poly(Gf2Poly.parse("1+t+t^2"))


def frame_cases():
    maps = [d.to_window_map() for n in (2, 3) for d in enumerate_dictionaries(n, "progressive")]
    root = QuadScalar.of(0, 1)
    yield [], SHIFT
    for m in maps:
        fam = standard_frame(m)
        yield fam, m
        yield fam[:1], m
        yield scaled_member(fam), m
        yield spread_member(fam), m
        yield [fam[0].scale(QuadScalar.of(-1))] + fam[1:], m
    for m1 in maps[:4]:
        for m2 in maps[-3:]:
            fam = refine_frame(standard_frame(m1), m1, standard_frame(m2), m2)
            yield fam, m1.compose(m2)
            yield fam, m2.compose(m1)
    yield [CylinderFunction.one().scale(root)], SHIFT
    yield [f.scale(root) for f in basis(2)], SHIFT
    yield [f.scale(root) for f in basis(3)], LED
    yield standard_frame(LED), SHIFT
    yield standard_frame(SHIFT), LED
    yield standard_frame(SHIFT), WindowMap(2, 0b0011)
    yield [CylinderFunction.from_values(2, [1, 1, 1, 1])] * 2, SHIFT
    sets = ["00,11", "01,10", "00,01", "10,11"]
    words = [[int(w, 2) for w in s.split(",")] for s in sets]
    yield [CylinderFunction.from_values(2, [int(v in ws) for v in range(4)]) for ws in words], SHIFT


def frame_outcome(fn, frame, m):
    try:
        return fn(frame, m)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_verify_frame_accepts_and_rejects_alike():
    accepted = rejected = 0
    for frame, m in frame_cases():
        got = frame_outcome(verify_frame, frame, m)
        assert got == frame_outcome(dense_verify_frame, frame, m), (frame, m)
        accepted += got is None
        rejected += got is not None
    assert accepted > 20 and rejected > 20


T = Gf2Poly.parse("t")
ONE_T = Gf2Poly.parse("1+t")
RANK1 = DynamicalSystem.from_polys([T], ["s"])
COPRIME = DynamicalSystem.from_polys([T, ONE_T], ["s", "u"])
MIXED = DynamicalSystem.from_polys([T, Gf2Poly.parse("1+t+t^2")], ["s", "c"])


def chi(text):
    return CylinderFunction.indicator(Word.from_str(text))


DEFECT_CASES = [
    (RANK1, (1,), (1,), 4, chi("1"), chi("11")),
    (RANK1, (2,), (2,), 4, None, None),
    (RANK1, (1,), (2,), 3, None, None),
    (RANK1, (1,), (2,), 3, chi("0"), None),
    (RANK1, (1,), (2,), 4, None, chi("101")),
    (RANK1, (1,), (3,), 4, None, None),
    (RANK1, (2,), (3,), 4, None, None),
    (RANK1, (0,), (2,), 3, None, None),
    (COPRIME, (1, 0), (0, 1), 3, None, None),
    (COPRIME, (2, 1), (0, 3), 4, chi("01"), chi("1")),
    (MIXED, (1, 0), (0, 1), 4, None, None),
    (MIXED, (0, 1), (2, 0), 5, chi("1").scale(QuadScalar.of(0, 1)), chi("0110")),
]


@pytest.mark.parametrize("case", DEFECT_CASES)
def test_expectation_defect_matches_dense(case):
    sys_, p, q, level, f, g = case
    p, q = MonoidElement(p), MonoidElement(q)
    new = expectation_defect(sys_, p, q, level, f=f, g=g)
    old = dense_expectation_defect(sys_, p, q, level, f=f, g=g)
    assert new.to_json_dict() == old.to_json_dict()
    assert new.diagonal == old.diagonal


BUMP_CASES = [
    (COPRIME, (1, 0), (0, 1), "1:0"),
    (COPRIME, (1, 0), (0, 1), "0001:0"),
    (COPRIME, (2, 0), (0, 1), "01:1"),
    (COPRIME, (1, 1), (0, 2), ":011"),
    (MIXED, (1, 0), (0, 1), "1:0"),
    (MIXED, (0, 1), (1, 0), "110:01"),
    (RANK1, (1,), (2,), "1:0"),
    (COPRIME, (1, 0), (1, 0), "1:0"),
]


@pytest.mark.parametrize("case", BUMP_CASES)
def test_annihilating_bump_matches_dense(case):
    sys_, p, q, x = case
    args = (sys_, MonoidElement(p), MonoidElement(q), PeriodicSeq.parse(x))
    assert outcome(annihilating_bump, *args) == outcome(dense_annihilating_bump, *args)


def test_fast_path_builds_no_dense_operator(monkeypatch):
    """The relation suite, defects and bumps never form a dense matrix."""

    def refuse(self):
        raise AssertionError("a dense LevelOperator was built")

    monkeypatch.setattr(LevelOperator, "__post_init__", refuse)
    report = verify_relations(system(("t", "1+t", "1+t+t^2")), 10)
    assert all(report.relations.values())
    for sys_, p, q, level, f, g in DEFECT_CASES:
        expectation_defect(sys_, MonoidElement(p), MonoidElement(q), level, f=f, g=g)
    for sys_, p, q, x in BUMP_CASES[:-2]:
        annihilating_bump(sys_, MonoidElement(p), MonoidElement(q), PeriodicSeq.parse(x))
