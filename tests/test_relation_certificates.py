"""Certificate-first relations against the routes they skip.

II, IV, the matrix units and frame independence each decide a holding
relation by one gather or one count (a certificate) and run the sort and
Gram routes only to find a witness.  The counting routes as they were
before the certificates are kept here as the oracle: on tampered image
tables and patched frames the certificate-first suite must give the
oracle's report.  A holding suite runs no Gram route and counts keys only
for III, whose linear witness is pinned; the tamper cases below also fail
II with a nonzero witness column and fail IV on a coprime system.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import starshift.cylinder as cylinder
import starshift.dictionary as dictionary
import starshift.matrixmodel as matrixmodel
from dense_oracle import dense_verify_relations
from starshift import DynamicalSystem, Gf2Poly, QuadScalar, Word, poly_gcd, verify_relations


def system(polys, names=None):
    return DynamicalSystem.from_polys([Gf2Poly.parse(p) for p in polys], names)


# The counting routes, as they were before the certificates.


def oracle_ii(level, g):
    k, img = level.k, g.top
    found = matrixmodel._count_difference(
        (np.arange(img.size, dtype=np.int64) << k) | img,
        ((matrixmodel._preimage_table(g.m, k) << k) | level.words[:, None]).ravel(),
    )
    if found is None:
        return None
    key, net = found
    x = Word(k, key & ((1 << k) - 1))
    return matrixmodel._witness((g.name,), x, x, QuadScalar.of(Fraction(net, g.m.fiber_count)))


def oracle_iv(level, g):
    scale = g.m.fiber_count * g.den * g.den
    rows, cols, ga, gb = cylinder._fiber_gram(g.fibers, g.prefix, *g.gram)
    return matrixmodel._first_entry(
        (g.name,), rows, cols, level.k, ga - scale * (rows == cols), gb, scale
    )


def oracle_matrix_units(level, g):
    k, d, low, fibers = level.k, g.d, g.low, g.m.fiber_count
    per_prefix = np.bincount(
        (level.words >> (k - d)) * (1 << (k - d)) + low, minlength=fibers << (k - d)
    ).reshape(fibers, -1)
    for b, shared in enumerate(g.shared):
        bad = per_prefix[b][low] != 1
        if bad.any():
            y = Word(k, int(np.argmax(bad)))
            value = QuadScalar.of(Fraction(int(per_prefix[b][low[y.bits]]) - 1, fibers))
            return matrixmodel._witness((g.name,), y, y, value)
        if shared:
            c = matrixmodel._inv_root(d)
            return matrixmodel._witness((g.name,), Word(k, 0), Word(k, 0), c * c)
    return None


def oracle_frame_independence(level, gi, gj):
    comp = gi.m.compose(gj.m)
    std = matrixmodel.standard_frame(comp)
    prefix = max(gi.prefix, gj.prefix + gi.m.window - 1, *(nu.level for nu in std))
    den = math.lcm(gi.den * gj.den, *(nu.den for nu in std))
    (sa, sb), _ = cylinder._frame_record(std, comp.window - 1, prefix, den)
    rescale = (den // (gi.den * gj.den)) ** 2
    ra, rb = (x * rescale for x in cylinder._refined_gram(gi.gram, gi.m, gj.gram, prefix))
    if np.array_equal(sa, ra) and np.array_equal(sb, rb):
        return None
    rows, cols, da, db = cylinder._fiber_gram(level.fibers(comp, level.k), prefix, sa - ra, sb - rb)
    scale = comp.fiber_count * den * den
    return matrixmodel._first_entry((gi.name, gj.name), rows, cols, level.k, da, db, scale)


ORACLES = {"II": oracle_ii, "IV": oracle_iv, "orthonormal_matrix_units": oracle_matrix_units}


def oracle_verify_relations(sys_, level):
    with pytest.MonkeyPatch.context() as patch:
        for name, route in ORACLES.items():
            patch.setitem(matrixmodel._PER_GENERATOR, name, route)
        patch.setattr(matrixmodel, "_frame_independence", oracle_frame_independence)
        return verify_relations(sys_, level)


def outcome(fn, *args):
    """The report as JSON, or the type and message of the error raised."""
    try:
        return fn(*args).to_json_dict()
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)


# Tampered tables and patched frames.


def edited(real, edits):
    """`real` with the (key, flat positions, values) edits of each key applied to a copy."""

    def tampered(*key):
        table = real(*key)
        mine = [(pos, val) for edit_key, pos, val in edits if edit_key == key]
        if mine:
            table = table.copy()
            for pos, val in mine:
                table.flat[list(pos)] = val
        return table

    return tampered


def edit_tables(patch, edits):
    """Apply ("image" or "preimage", key, positions, values) edits to the tables the suite reads."""
    image = [edit[1:] for edit in edits if edit[0] == "image"]
    preimage = [edit[1:] for edit in edits if edit[0] == "preimage"]
    patch.setattr(dictionary, "_image_table", edited(dictionary._image_table, image))
    patch.setattr(matrixmodel, "_preimage_table", edited(matrixmodel._preimage_table, preimage))


def swap_edit(m, length, y1, y2):
    table = dictionary._image_table(m, length)
    return "image", (m, length), (y1, y2), [int(table[y2]), int(table[y1])]


def scaled_member(frame):
    return [frame[0].scale(QuadScalar.of(2))] + frame[1:]


def scaled_frame(frame):
    """Every member doubled: the Gram is still scaled identity, with four times the scale."""
    return [nu.scale(QuadScalar.of(2)) for nu in frame]


def tilted_frame(frame):
    """Every member times (1 + 2 sqrt2) / 3: the Gram's rational part is the standard one."""
    return [nu.scale(QuadScalar.of(Fraction(1, 3), Fraction(2, 3))) for nu in frame]


def coarse_frame(frame):
    """The standard members one degree down, times sqrt2: the standard scale at a shorter prefix."""
    d = len(frame).bit_length() - 1
    return [nu.scale(QuadScalar.of(0, 1)) for nu in cylinder._standard_members(d - 1)]


def padded_frame(frame):
    """A zero member appended: the same Gram, one more shared-support flag."""
    return frame + [frame[0].scale(QuadScalar.of(0))]


def spread_member(frame):
    return frame[:-1] + [frame[-1] + frame[0]]


def swapped_members(frame):
    return [frame[1], frame[0]] + frame[2:]


def dropped_member(frame):
    return frame[1:]


def mixed_members(frame):
    half_root = QuadScalar.of(0, Fraction(1, 2))
    mixed = [(frame[0] + frame[1]).scale(half_root), (frame[0] - frame[1]).scale(half_root)]
    return mixed + frame[2:]


BREAKS = [
    scaled_member,
    scaled_frame,
    tilted_frame,
    coarse_frame,
    padded_frame,
    spread_member,
    swapped_members,
    dropped_member,
    mixed_members,
]


def patch_frame(patch, target, broken):
    real = cylinder.standard_frame

    def frames(m):
        return broken(list(real(m))) if m == target else real(m)

    for module in (cylinder, matrixmodel):
        patch.setattr(module, "standard_frame", frames)


SYSTEMS = [
    ("t", "1+t"),
    ("t", "1+t+t^2"),
    ("t", "1+t", "1+t+t^2"),
    ("1+t", "t^2"),
    ("1+t^2", "t+t^2"),
    ("1+t+t^2",),
]
_READ = {}


def tables_read(polys, level):
    """Every (map, length) whose image table either route reads on the untampered system."""
    if (polys, level) not in _READ:
        seen, real = [], dictionary._image_table

        def recording(m, length):
            if (m, length) not in seen:
                seen.append((m, length))
            return real(m, length)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dictionary, "_image_table", recording)
            verify_relations(system(polys), level)
            oracle_verify_relations(system(polys), level)
        _READ[polys, level] = seen
    return _READ[polys, level]


@st.composite
def table_edits(draw, polys, level):
    """Two swapped entries, or one entry overwritten by a word of up to one bit more than an image."""
    m, length = draw(st.sampled_from(tables_read(polys, level)))
    words = st.integers(0, (1 << length) - 1)
    if draw(st.booleans()):
        return swap_edit(m, length, draw(words), draw(words))
    image = draw(st.integers(0, (2 << (length - m.window + 1)) - 1))
    return "image", (m, length), (draw(words),), [image]


@st.composite
def preimage_edits(draw, polys, level):
    """Within one row of II's fiber table: two entries swapped, one copied over another, or a word."""
    m = draw(st.sampled_from(system(polys).generators))
    listed = cylinder._preimage_table(m, level)
    row, columns = draw(st.integers(0, listed.shape[0] - 1)), st.integers(0, listed.shape[1] - 1)
    a, b = draw(columns), draw(columns)
    at = row * listed.shape[1]
    kind = draw(st.sampled_from(["swap", "copy", "word"]))
    if kind == "swap":
        return "preimage", (m, level), (at + a, at + b), [int(listed[row, b]), int(listed[row, a])]
    value = int(listed[row, b]) if kind == "copy" else draw(st.integers(0, listed.size - 1))
    return "preimage", (m, level), (at + a,), [value]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_certificates_report_as_the_counting_routes(data):
    """Edited image or fiber tables and patched frames, at levels 6-9."""
    polys = data.draw(st.sampled_from(SYSTEMS))
    level = data.draw(st.integers(6, 9))
    edit = table_edits(polys, level) | preimage_edits(polys, level)
    edits = data.draw(st.lists(edit, max_size=2))
    maps = system(polys).generators
    targets = list(maps) + [a.compose(b) for a, b in itertools.combinations_with_replacement(maps, 2)]
    frame = data.draw(st.none() | st.tuples(st.sampled_from(targets), st.sampled_from(BREAKS)))
    with pytest.MonkeyPatch.context() as patch:
        edit_tables(patch, edits)
        if frame is not None:
            patch_frame(patch, *frame)
        expected = outcome(oracle_verify_relations, system(polys), level)
        assert outcome(verify_relations, system(polys), level) == expected


# A holding suite runs no Gram route.


@pytest.fixture
def routes(monkeypatch):
    """The calls of each witness route, counted where the suite looks them up."""
    counts = dict.fromkeys(["_refined_gram", "_fiber_gram", "_count_difference"], 0)
    for name in counts:
        real = getattr(matrixmodel, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(matrixmodel, name, counted)
    return counts


SUITE = ("t", "1+t", "1+t+t^2")


def test_holding_suite_counts_only_for_iii(routes):
    report = verify_relations(system(SUITE, ["a", "b", "c"]), 7)
    assert all(report.relations.values())
    # One `_count_difference` per pair of distinct generators, for III.
    assert routes == {"_refined_gram": 0, "_fiber_gram": 0, "_count_difference": 3}


@pytest.mark.parametrize(
    "target, iv, frame_independence",
    [
        (0, {"pair": ["a"], "value": "3"}, {"pair": ["a", "a"], "value": "-15"}),
        (2, {"pair": ["c"], "value": "3"}, {"pair": ["a", "c"], "value": "-3"}),
    ],
)
def test_scaled_member_runs_the_gram_routes(monkeypatch, routes, target, iv, frame_independence):
    """A scaled member fails the records' certificate, and the routes give the counting witnesses."""
    sys_ = system(SUITE, ["a", "b", "c"])
    patch_frame(monkeypatch, sys_.generators[target], scaled_member)
    report = verify_relations(sys_, 7)
    assert routes["_fiber_gram"] > 0 and routes["_refined_gram"] > 0
    origin = {"row": "0000000", "col": "0000000"}
    expected = {"IV": {**iv, **origin}, "frame_independence": {**frame_independence, **origin}}
    assert report.witnesses == expected
    assert report.to_json_dict() == dense_verify_relations(sys_, 7).to_json_dict()


def test_relation_iv_allocates_nothing_on_a_holding_generator():
    """After a warm call IV decides from the context: its peak is at most one int64 image_table(18)."""
    sys_, level = system(("t", "1+t+t^2")), 16
    verify_relations(sys_, level)
    context = matrixmodel._Level(sys_, level)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for g in context.generators:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert matrixmodel._relation_iv(context, g) is None
            assert tracemalloc.get_traced_memory()[1] - base <= 8 << (level + 2)
    finally:
        if not tracing:
            tracemalloc.stop()


# Tamper cases the dense oracle decides.


@pytest.mark.parametrize("gen, y1, y2, col", [(0, 3, 5, "0000011"), (1, 5, 7, "0000101")])
def test_tampered_top_table_fails_ii_at_a_nonzero_column(monkeypatch, gen, y1, y2, col):
    """Two swapped odd words with odd nonzero images put II's witness off column zero."""
    polys, level = ("t", "1+t+t^2"), 7
    m = system(polys).generators[gen]
    edit_tables(monkeypatch, [swap_edit(m, level + m.window - 1, y1, y2)])
    report = verify_relations(system(polys), level)
    assert report.witnesses["II"]["row"] == report.witnesses["II"]["col"] == col
    assert report.to_json_dict() == dense_verify_relations(system(polys), level).to_json_dict()


def test_tampered_level_table_fails_iv_on_a_coprime_system(monkeypatch):
    """IV fails while every coprime pair holds III, so not every expected relation holds."""
    polys, level = ("t", "1+t+t^2"), 6
    m = system(polys).generators[1]
    table = dictionary._image_table(m, level)
    edit_tables(monkeypatch, [swap_edit(m, level, 0, int(np.flatnonzero(table != table[0])[-1]))])
    report = verify_relations(system(polys), level)
    assert report.relations["IV"] is False and report.relations["III"] is True
    assert [d["coprime"] for d in report.pair_details] == [True]
    assert report.all_expected_hold is False
    assert report.to_json_dict() == dense_verify_relations(system(polys), level).to_json_dict()


# III's witness on linear pairs that share a factor.

LOW_DEGREE = [Gf2Poly(mask) for mask in range(2, 16)]
SHARING = [(a, b) for a, b in itertools.permutations(LOW_DEGREE, 2) if poly_gcd(a, b) != Gf2Poly.one()]


def inverse_roots(e):
    """F_i^(-1/2) F_j^(-1/2) = 2^(-e/2) for e = d_i + d_j, as a + b sqrt2."""
    if e % 2:
        return QuadScalar.of(0, Fraction(1, 1 << (e + 1) // 2))
    return QuadScalar.of(Fraction(1, 1 << e // 2))


@pytest.mark.parametrize("level", range(6, 13))
def test_linear_iii_witness_is_the_common_kernel_count(level):
    """Row 0^(k+d_j-d_i), column 0^k, value c_i c_j (2^(deg gcd) - 1) on every sharing ordered pair."""
    assert len(SHARING) == 84
    for a, b in SHARING:
        di, dj, gcd = a.degree, b.degree, poly_gcd(a, b)
        report = verify_relations(DynamicalSystem.from_polys([a, b], ["i", "j"]), level)
        value = inverse_roots(di + dj) * QuadScalar.of((1 << gcd.degree) - 1)
        row, col = "0" * (level + dj - di), "0" * level
        expected = {"pair": ["i", "j"], "row": row, "col": col, "value": str(value)}
        assert report.witnesses["III"] == report.pair_details[0]["witness"] == expected, (a, b)
