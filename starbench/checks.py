"""Checks of each CLI answer against the schema and against `oracle`.

Every checker takes the parsed JSON report and the inputs the operation was
built from, and returns a list of problems (empty when the answer is right).
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

import oracle

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "src" / "starshift" / "schemas" / "cli.schema.json"
_VALIDATOR = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))

HOLDING_RELATIONS = ("I", "II", "IV", "frame_independence", "orthonormal_matrix_units")


def schema_problems(payload) -> list:
    return ["schema: %s" % err.message[:200] for err in _VALIDATOR.iter_errors(payload)][:3]


def _expect(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, want %r" % (what, str(got)[:120], str(want)[:120]))


def relations(payload, polys, level) -> list:
    """verify: I, II, IV and the frame checks hold; III holds exactly for coprime pairs."""
    problems = []
    names = ["p%d" % (i + 1) for i in range(len(polys))]
    _expect(problems, "generators", payload["generators"], [oracle.poly_text(p) for p in polys])
    _expect(problems, "level", payload["level"], level)
    for name in HOLDING_RELATIONS:
        _expect(problems, "relation " + name, payload["relations"][name], True)
    details = []
    first = None
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            gcd = oracle.gf2_gcd(polys[i], polys[j])
            detail = {
                "pair": [names[i], names[j]],
                "gcd": oracle.poly_text(gcd),
                "coprime": gcd == 1,
                "holds": gcd == 1,
            }
            if gcd != 1:
                found = oracle.star_witness(polys[i], polys[j], level)
                if found is None:
                    problems.append("oracle finds no III witness for a shared factor")
                    continue
                row, col, value = found
                detail["witness"] = {"pair": [names[i], names[j]], "row": row, "col": col, "value": value}
                first = first or detail["witness"]
            details.append(detail)
    _expect(problems, "relation III", payload["relations"]["III"], first is None)
    _expect(problems, "pair_details", payload["pair_details"], details)
    _expect(problems, "witnesses", payload["witnesses"], {} if first is None else {"III": first})
    return problems


def _kernel_problems(problems, elements, poly, primitive):
    d = poly.bit_length() - 1
    _expect(problems, "kernel size", len(elements), 1 << d)
    _expect(problems, "distinct kernel elements", len(set(elements)), len(elements))
    for text in elements:
        pre, per = text.split(":")
        if not oracle.is_normal(pre, per):
            problems.append("not in normal form: %s" % text[:40])
        elif not oracle.in_kernel(poly, pre, per):
            problems.append("outside the kernel: %s" % text[:40])
        elif primitive and text != ":0" and (pre or len(per) != (1 << d) - 1):
            problems.append("period is not 2^%d-1: %s" % (d, text[:40]))
        if len(problems) > 3:
            break


def kernel(payload, poly, source) -> list:
    """kernel --poly / --dict of a primitive polynomial: 2^d elements of period 2^d-1."""
    problems = []
    want = {"polynomial": oracle.poly_text(poly)} if source == "poly" else {"dictionary": oracle.linear_members(poly)}
    _expect(problems, "source", payload["source"], want)
    _kernel_problems(problems, payload["elements"], poly, primitive=True)
    return problems


def analysis(payload, poly) -> list:
    """analyze on a linear dictionary: every independence flag equals coprimality with t."""
    problems = []
    coprime = oracle.gf2_gcd(poly, 2) == 1
    n = poly.bit_length()
    record = {
        "window": n,
        "members": oracle.linear_members(poly),
        "progressive": True,
        "admissible": True,
        "linear": True,
        "polynomial": oracle.poly_text(poly),
        "fiber_count": 1 << (n - 1),
    }
    _expect(problems, "record", payload["record"], record)
    _kernel_problems(problems, payload["kernel"], poly, primitive=False)
    indep = payload["independence_vs_shift"]
    for flag in ("strongly_independent", "independent", "star_commute", "diagram_search"):
        _expect(problems, flag, indep[flag], coprime)
    _expect(problems, "shared_kernel_witness", indep["shared_kernel_witness"], None if coprime else "1:0")
    cert = payload["certificate"]
    _expect(problems, "certificate valid", cert["valid"], coprime)
    _expect(problems, "certificate witnesses", cert["witnesses"], [] if coprime else [{"pair": ["sigma", "theta"], "gcd": "t"}])
    _expect(problems, "certificate minimal", cert["minimal"], True if coprime else None)
    _expect(problems, "topologically free", cert["topologically_free"], True)
    return problems


def ledrappier(payload, base) -> list:
    """ledrappier: each row is the XOR of adjacent cells of the row below."""
    problems = []
    rows = payload["rows"]
    _expect(problems, "base", payload["base"], base)
    _expect(problems, "row count", len(rows), len(base))
    _expect(problems, "first row", rows[0] if rows else None, base)
    for below, above in zip(rows, rows[1:]):
        if above != oracle.xor_row(below):
            problems.append("row %s is not the XOR row of %s" % (above[:20], below[:20]))
            break
    _expect(problems, "routes_agree", payload["routes_agree"], True)
    return problems


def classification(payload, n) -> list:
    """classify n: counts and admissible rows equal the closed form."""
    problems = []
    want = oracle.census(n)
    _expect(problems, "window", payload["window"], n)
    _expect(problems, "counts", payload["counts"], want["counts"])
    _expect(problems, "admissible rows", payload["admissible"], want["admissible"])
    return problems


CHECKERS = {
    "relations": relations,
    "kernel": kernel,
    "analysis": analysis,
    "ledrappier": ledrappier,
    "classification": classification,
}


def judge(op, rc, output) -> list:
    """Problems with one operation's exit code and report; empty when right."""
    if rc != op.expected_rc:
        return ["exit code %r, want %d" % (rc, op.expected_rc)]
    try:
        payload = json.loads(output)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc]
    problems = schema_problems(payload)
    if not problems:
        _expect(problems, "kind", payload.get("kind"), op.kind)
    if not problems:
        try:
            problems = CHECKERS[op.kind](payload, **op.params)
        except (KeyError, IndexError, TypeError) as exc:
            problems = ["malformed report: %r" % exc]
    return problems
