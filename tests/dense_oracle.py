"""The dense route of the relation suite, kept as a test oracle.

These are the `LevelOperator` forms of `verify_relations`,
`expectation_defect`, `annihilating_bump` and `verify_frame`: every
operator is an exact dense matrix, every relation is a product of them,
and every witness is the row-major first nonzero entry of the difference
of the two sides.  The production code computes the same reports from
image tables; the differential tests compare the two.
`operator_commute_check` is relation (III) in function form, on the
same dense counts.

Two shortcuts keep level 9 affordable and change no answer: products of
small integer matrices go through float64 BLAS when every partial sum
stays an exact integer below 2^53, and relation (II) compares the two
sides' numerators directly, building operators only for a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import starshift.cylinder as cylinder
from starshift import (
    CylinderFunction,
    DynamicalSystem,
    Gf2Poly,
    InvalidSystem,
    LevelOperator,
    LevelTooSmall,
    MonoidElement,
    NonCommutingMaps,
    NoSeparation,
    NotAFrame,
    NotProgressive,
    PeriodicSeq,
    QuadScalar,
    WindowMap,
    Word,
    isometry_matrix,
    poly_gcd,
)
from starshift.matrixmodel import BumpReport, DefectReport, RelationReport
from starshift.starcomm import _coprimality_witnesses


def _witness_dict(pair_names, diff: LevelOperator) -> dict:
    row, col, value = diff.first_nonzero()
    return {
        "pair": list(pair_names),
        "row": str(row),
        "col": str(col),
        "value": str(value),
    }


def _mul(x: LevelOperator, y: LevelOperator) -> LevelOperator:
    """x @ y, through float64 when the integer products are exact."""
    inner = x.num_a.shape[1]
    bound = 3 * inner * max(int(np.abs(x.num_a).max()), int(np.abs(x.num_b).max()), 1) * max(
        int(np.abs(y.num_a).max()), int(np.abs(y.num_b).max()), 1
    )
    if x.source_level != y.target_level or bound >= 1 << 53:
        return x @ y
    xa, xb = x.num_a.astype(np.float64), x.num_b.astype(np.float64)
    ya, yb = y.num_a.astype(np.float64), y.num_b.astype(np.float64)
    a = (xa @ ya + 2 * (xb @ yb)).astype(np.int64)
    b = (xa @ yb + xb @ ya).astype(np.int64)
    return LevelOperator(y.source_level, x.target_level, a, b, x.den * y.den)


def _pulled_table(m, level):
    """alpha of the level coordinate function: the alpha side of relation (I)."""
    words = np.arange(1 << level, dtype=np.int64)
    return cylinder.alpha(m, CylinderFunction(level, words, np.zeros_like(words), 1)).num_a


def dense_verify_relations(sys: DynamicalSystem, level: int) -> RelationReport:
    """`verify_relations` on dense exact matrices."""
    windows = [m.window for m in sys.generators]
    if not windows:
        raise InvalidSystem("system has no generators")
    max_window = max(windows)
    composite_window = 2 * max_window - 1
    if level < max_window + 2 or level < composite_window - 1:
        raise LevelTooSmall("level %d too small for windows %s" % (level, windows))
    k = level
    relations = {
        "I": True,
        "II": True,
        "III": True,
        "IV": True,
        "frame_independence": True,
        "orthonormal_matrix_units": True,
    }
    witnesses = {}
    pair_details = []

    def record(name, pair_names, diff):
        relations[name] = False
        if name not in witnesses:
            witnesses[name] = _witness_dict(pair_names, diff)

    for m, name in zip(sys.generators, sys.names):
        n = m.window
        top = isometry_matrix(m, k)
        # (I): both sides vanish outside the sparsity pattern of S_p, so
        # compare the masked rows and columns for every basis indicator;
        # the rows where alpha(chi_u) is one come from alpha itself.
        img = _pulled_table(m, k)
        for u in range(1 << k):
            rows = img == u
            col_a, col_b = top.num_a[:, u], top.num_b[:, u]
            off_rows = ~rows
            ok = not col_a[off_rows].any() and not col_b[off_rows].any()
            in_rows = int(np.count_nonzero(top.num_a[rows])) + int(
                np.count_nonzero(top.num_b[rows])
            )
            in_col = int(np.count_nonzero(col_a[rows])) + int(np.count_nonzero(col_b[rows]))
            if not ok or in_rows != in_col:
                chi = CylinderFunction.indicator(Word(k, u))
                lhs = top.scale_cols(chi)
                rhs = top.scale_rows(cylinder.alpha(m, chi))
                record("I", (name,), lhs - rhs)
                break
        # (II): the sandwich with diag(indicator of u) is the outer product
        # of row u of S_p with itself; compare with the transfer diagonal.
        den2 = top.den * top.den
        for u in range(1 << (k + n - 1)):
            ra, rb = top.num_a[u], top.num_b[u]
            oa = np.outer(ra, ra) + 2 * np.outer(rb, rb)
            ob = np.outer(ra, rb) + np.outer(rb, ra)
            t = cylinder.transfer(m, CylinderFunction.indicator(Word(k + n - 1, u)))
            if not (
                np.array_equal(oa * t.den, np.diag(t.num_a) * den2)
                and np.array_equal(ob * t.den, np.diag(t.num_b) * den2)
            ):
                lhs = LevelOperator(k, k, oa, ob, den2)
                record("II", (name,), lhs - LevelOperator.from_cylinder(t, k))
                break
        # (IV) and the matrix-unit algebra for the standard frame.
        frame = cylinder.standard_frame(m)
        s_low = isometry_matrix(m, k - n + 1)
        t_op = _mul(s_low, s_low.adjoint())
        total = None
        for nu in frame:
            term = t_op.scale_rows(nu).scale_cols(nu)
            total = term if total is None else total + term
        if total != LevelOperator.identity(k):
            record("IV", (name,), total - LevelOperator.identity(k))
        fiber_scalar = QuadScalar.of(m.fiber_count)
        sym = t_op - t_op.adjoint()
        if not sym.is_zero:
            record("orthonormal_matrix_units", (name,), sym)
        for b, nu_b in enumerate(frame):
            chi_b = CylinderFunction.indicator(Word(n - 1, b))
            inner = _mul(t_op.scale_cols(chi_b), t_op).scaled(fiber_scalar)
            if inner != t_op:
                record("orthonormal_matrix_units", (name,), inner - t_op)
                break
            for c, nu_c in enumerate(frame):
                if c != b and not (nu_b * nu_c).is_zero:
                    record("orthonormal_matrix_units", (name,), t_op)
                    break

    # (III) for every unordered pair of distinct generators.
    for i in range(sys.rank):
        for j in range(i + 1, sys.rank):
            mi, mj = sys.generators[i], sys.generators[j]
            di, dj = mi.window - 1, mj.window - 1
            lhs = _mul(isometry_matrix(mi, k + dj - di).adjoint(), isometry_matrix(mj, k))
            rhs = _mul(isometry_matrix(mj, k - di), isometry_matrix(mi, k - di).adjoint())
            holds = lhs == rhs
            gcd = poly_gcd(mi.linear_poly, mj.linear_poly)
            detail = {
                "pair": [sys.names[i], sys.names[j]],
                "gcd": str(gcd),
                "coprime": gcd == Gf2Poly.one(),
                "holds": holds,
            }
            if not holds:
                relations["III"] = False
                if "III" not in witnesses:
                    witnesses["III"] = _witness_dict((sys.names[i], sys.names[j]), lhs - rhs)
                detail["witness"] = _witness_dict((sys.names[i], sys.names[j]), lhs - rhs)
            pair_details.append(detail)

    # Frame independence for products of two generators (including squares).
    for i in range(sys.rank):
        for j in range(i, sys.rank):
            mi, mj = sys.generators[i], sys.generators[j]
            comp = mi.compose(mj)
            s_comp = isometry_matrix(comp, k - comp.window + 1)
            t_comp = _mul(s_comp, s_comp.adjoint())

            def recon_sum(frame):
                total = None
                for nu in frame:
                    term = t_comp.scale_rows(nu).scale_cols(nu)
                    total = term if total is None else total + term
                return total

            std = recon_sum(cylinder.standard_frame(comp))
            # The refined frame by its definition; `refine_frame` would
            # refuse a broken factor frame before IV reports it.
            refined = recon_sum(
                [
                    nu1 * cylinder.alpha(mi, nu2)
                    for nu1 in cylinder.standard_frame(mi)
                    for nu2 in cylinder.standard_frame(mj)
                ]
            )
            if std != refined:
                record("frame_independence", (sys.names[i], sys.names[j]), std - refined)

    return RelationReport(level, relations, witnesses, tuple(pair_details))


def dense_expectation_defect(
    sys: DynamicalSystem,
    p: MonoidElement,
    q: MonoidElement,
    level: int,
    f: CylinderFunction | None = None,
    g: CylinderFunction | None = None,
) -> DefectReport:
    """`expectation_defect` from the dense sandwich M_f S_p S_q* M_g."""
    if _coprimality_witnesses(sys):
        raise InvalidSystem("generators are not pairwise coprime")
    poly_p, poly_q = sys.poly_of(p), sys.poly_of(q)
    mp, mq = sys.map_of(p), sys.map_of(q)
    dp, dq = mp.window - 1, mq.window - 1
    k = level
    f = CylinderFunction.one() if f is None else f
    g = CylinderFunction.one() if g is None else g
    if max(f.level, g.level) > k:
        raise ValueError("f and g must live at or below the requested level")
    if k < max(dp, dq):
        raise LevelTooSmall("level below the degrees of p and q")
    if poly_p == poly_q:
        s = isometry_matrix(mp, k - dp)
        base = s @ s.adjoint()
        op = base.scale_rows(f).scale_cols(g)
        return DefectReport(k, k, k, op.diagonal(), ())
    working = k + max(dp, dq)
    sq = isometry_matrix(mq, working - dq)
    sp = isometry_matrix(mp, working - dq)
    target = working - dq + dp
    base = sp @ sq.adjoint()
    op = base.scale_rows(f.embed(target)).scale_cols(g.embed(working))
    diag_level = max(working, target)
    rows = np.arange(1 << diag_level, dtype=np.int64) >> (diag_level - target)
    cols = np.arange(1 << diag_level, dtype=np.int64) >> (diag_level - working)
    diagonal = CylinderFunction(
        diag_level, op.num_a[rows, cols], op.num_b[rows, cols], op.den
    )
    base_diag_a = base.num_a[rows, cols]
    base_diag_b = base.num_b[rows, cols]
    live = np.nonzero(np.abs(base_diag_a) + np.abs(base_diag_b))[0]
    defect = sorted({int(v) >> (diag_level - k) for v in live})
    return DefectReport(
        k, working, target, diagonal, tuple(Word(k, v) for v in defect)
    )


def dense_annihilating_bump(
    sys: DynamicalSystem, p: MonoidElement, q: MonoidElement, x: PeriodicSeq
) -> BumpReport:
    """`annihilating_bump`, certified by the dense sandwich chi S_p S_q* chi."""
    mp, mq = sys.map_of(p), sys.map_of(q)
    image_p = mp.apply_seq(x)
    image_q = mq.apply_seq(x)
    if image_p == image_q:
        raise NoSeparation("the maps agree on the given sequence")
    horizon = max(image_p.pre_len, image_q.pre_len) + math.lcm(
        image_p.per_len, image_q.per_len
    )
    j = next(i for i in range(1, horizon + 1) if image_p.coord(i) != image_q.coord(i))
    dp, dq = mp.window - 1, mq.window - 1
    bound = j + max(dp, dq)
    for m in range(1, bound + 1):
        u = x.prefix(m)
        chi = CylinderFunction.indicator(u)
        working = m + max(mp.window, mq.window) + 1
        sq = isometry_matrix(mq, working - dq)
        sp = isometry_matrix(mp, working - dq)
        sandwich = (sp @ sq.adjoint()).scale_rows(chi).scale_cols(chi)
        if sandwich.is_zero:
            return BumpReport(u, working)
    raise AssertionError("separation bound exceeded; this cannot happen")


def dense_verify_frame(frame, m) -> None:
    """`verify_frame` with reconstruction tried on every basis indicator."""
    if not frame:
        raise NotAFrame("empty family")
    n = m.window
    inv_n = QuadScalar.of(Fraction(1, m.fiber_count))
    total = CylinderFunction.zero()
    for nu in frame:
        total = total + (nu * nu).scale(inv_n)
    if total != CylinderFunction.one():
        raise NotAFrame("normalized squares do not sum to one")
    for nu in frame:
        level = max(nu.level, n - 1)
        lifted = nu.embed(level)
        support = [v for v in range(1 << level) if lifted.num_a[v] or lifted.num_b[v]]
        images = m.image_table(level)[support] if support else []
        if len(set(int(i) for i in images)) != len(support):
            raise NotAFrame("map is not injective on a frame support")
    check_level = max(nu.level for nu in frame) + n - 1
    for f in cylinder.basis(check_level):
        total = CylinderFunction.zero(f.level)
        for nu in frame:
            total = total + nu * cylinder.expectation(m, nu * f)
        if total != f.embed(total.level):
            raise NotAFrame("reconstruction fails on the level-%d basis" % check_level)


@dataclass(frozen=True)
class CommuteDecision:
    commute: bool
    level: int
    witness: Word | None


def operator_commute_check(m1: WindowMap, m2: WindowMap, level: int) -> CommuteDecision:
    """Compare transfer(m1) after alpha(m2) with alpha(m2) after transfer(m1).

    Both composites are applied to every level-k basis indicator at once
    as exact integer matrices; the witness is the first basis function on
    which they disagree.
    """
    if not m1.is_progressive:
        raise NotProgressive("transfer side must be progressive")
    if m1.compose(m2).rule != m2.compose(m1).rule:
        raise NonCommutingMaps("maps do not commute")
    n1, n2 = m1.window, m2.window
    if level < max(n1, n2) - 1:
        raise ValueError("level must be at least max window - 1")
    k = level
    mid = k + n2 - 1
    out = k + n2 - n1
    img1_mid = m1.image_table(mid)
    img2_mid = m2.image_table(mid)
    lhs = np.zeros((1 << out, 1 << k), dtype=np.int64)
    np.add.at(lhs, (img1_mid, img2_mid), 1)
    img1_k = m1.image_table(k)
    img2_out = m2.image_table(out)
    rhs = (img1_k[None, :] == img2_out[:, None]).astype(np.int64)
    if np.array_equal(lhs, rhs):
        return CommuteDecision(True, level, None)
    col = int(np.nonzero((lhs != rhs).any(axis=0))[0][0])
    return CommuteDecision(False, level, Word(k, col))
