"""Command-line interface for dictionary analysis and operator checks."""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii

# Only the commands that call these three should run them: they are bound as the
# package's lazy modules, since importing a name from one would run it at once.
from . import ledrappier, matrixmodel, starcomm
from .budget import admit_dictionaries
from .dictionary import Dictionary, _linear_table, classify_dictionary, kernel_texts
from .gf2poly import Gf2Poly, recurrence_kernel_texts
from .words import Word


def _yesno(flag) -> str:
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


# The bytes JSON prints as themselves: printable ASCII but the quote and the backslash.
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def _dumps(value) -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`.

    A kernel listing is thousands of strings that need no escaping, so a
    list of strings is checked in one pass over its joined text and, if
    every byte is plain, quoted as it stands.  Other strings go through
    json's own C escaper.  The pieces are joined once at the end, so a
    listing of megabytes is copied once, not once per enclosing level.
    Values outside str, int, bool, None, lists and dicts with str keys
    raise TypeError.
    """
    out = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, pad: str, out: list) -> None:
    """Append the pieces of `value` to `out`; `pad` is the newline and indent of its level."""
    inner = pad + "  "
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        if set(map(type, value)) == {str}:
            text = "".join(value)
            if text.isascii() and not text.encode("ascii").translate(None, _PLAIN):
                out += ("[", inner, '"', ('",' + inner + '"').join(value), '"', pad, "]")
                return
        for i, item in enumerate(value):
            out += ("," if i else "[", inner)
            _write(item, inner, out)
        out += (pad, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if set(map(type, value)) != {str}:
            raise TypeError("JSON object keys must be str")
        for i, key in enumerate(sorted(value)):
            out += ("," if i else "{", inner, encode_basestring_ascii(key), ": ")
            _write(value[key], inner, out)
        out += (pad, "}")
    else:
        raise TypeError("cannot write %s as JSON" % type(value).__name__)


def _analysis_payload(d: Dictionary) -> dict:
    record = classify_dictionary(d)
    payload = {
        "kind": "analysis",
        "record": record.to_json_dict(),
        "kernel": None,
        "independence_vs_shift": None,
        "certificate": None,
    }
    if not record.progressive:
        return payload
    payload["kernel"] = kernel_texts(d)
    keys = ("strongly_independent", "independent", "star_commute", "diagram_search", "shared_kernel_witness")
    indep = dict.fromkeys(keys)
    # Left permutivity of the rule, which for a linear rule a (degree n-1 >= 1) is gcd(t, a) = 1.
    indep["diagram_search"] = d.to_window_map().star_commutes_with_shift
    poly = record.polynomial
    if poly is not None:
        profile = starcomm.independence_profile(Gf2Poly.t(), poly)
        indep["strongly_independent"] = profile.strongly_independent
        indep["independent"] = profile.independent
        indep["star_commute"] = profile.star_commute
        if profile.shared_kernel_witness is not None:
            indep["shared_kernel_witness"] = str(profile.shared_kernel_witness)
        system = starcomm.DynamicalSystem.from_polys([Gf2Poly.t(), poly], ["sigma", "theta"])
        payload["certificate"] = starcomm.certify_system(system).to_json_dict()
    payload["independence_vs_shift"] = indep
    return payload


def _render_analysis(payload: dict) -> None:
    rec = payload["record"]
    print("dictionary: %s" % rec["members"])
    print(
        "window %d  progressive %s  admissible %s  linear %s"
        % (
            rec["window"],
            _yesno(rec["progressive"]),
            _yesno(rec["admissible"]),
            _yesno(rec["linear"]),
        )
    )
    if rec["polynomial"] is not None:
        print("polynomial: %s" % rec["polynomial"])
    if rec["fiber_count"] is not None:
        print("fiber count: %d" % rec["fiber_count"])
    if payload["kernel"] is not None:
        print("kernel: %s" % ", ".join(payload["kernel"]))
    indep = payload["independence_vs_shift"]
    if indep is not None:
        print(
            "vs shift: strongly independent %s, independent %s, "
            "star-commute %s, diagram search %s"
            % (
                _yesno(indep["strongly_independent"]),
                _yesno(indep["independent"]),
                _yesno(indep["star_commute"]),
                _yesno(indep["diagram_search"]),
            )
        )
        if indep["shared_kernel_witness"] is not None:
            print("shared kernel witness: %s" % indep["shared_kernel_witness"])
    cert = payload["certificate"]
    if cert is not None:
        print(
            "system (sigma, theta): valid %s, minimal %s, topologically free %s"
            % (_yesno(cert["valid"]), _yesno(cert["minimal"]), _yesno(cert["topologically_free"]))
        )
        print("simplicity: %s" % cert["simplicity_report"])


# Maps the text of a binary numeral to bytes that are false at its 0s and true at its 1s.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pick(items: list, mask: int):
    """The items at the set bits of `mask`, lowest bit first."""
    return itertools.compress(items, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def _classification_payload(n: int) -> dict:
    """All dictionaries of window n, counted in closed form.

    A progressive dictionary picks one completion per (n-1)-prefix.  The
    admissible ones are exactly the linear rules of the polynomials of
    degree n-1, and such a polynomial *-commutes with the shift exactly
    when it is coprime to t, that is, when its constant term is 1.  Each
    row is read off the bits of its polynomial: the members are the window
    words at the 1s of the polynomial's rule table, and the terms of its
    text are the powers at the 1s of the polynomial itself.
    """
    admit_dictionaries(n, n - 1)
    top = 1 << (n - 1)
    spec = "0%db" % n
    words = [format(v, spec) for v in range(1 << n)]
    terms = ["1", "t"] + ["t^%d" % i for i in range(2, n)]
    rows = []
    for low in range(top):
        bits = top | low
        members = ",".join(_pick(words, _linear_table(n, bits)))
        rows.append((members, "+".join(_pick(terms, bits)), bool(low & 1)))
    rows.sort()
    return {
        "kind": "classification",
        "window": n,
        "counts": {
            "total": 1 << (1 << n),
            "progressive": 1 << top,
            "admissible": top,
            "star_commuting_with_shift": top >> 1,
        },
        "admissible": [
            {"members": members, "polynomial": poly, "star_commutes_with_shift": star}
            for members, poly, star in rows
        ],
    }


def _render_classification(payload: dict) -> None:
    c = payload["counts"]
    print(
        "window %d: %d dictionaries, %d progressive, %d admissible, "
        "%d star-commuting with the shift"
        % (payload["window"], c["total"], c["progressive"], c["admissible"], c["star_commuting_with_shift"])
    )
    for row in payload["admissible"]:
        print(
            "  %s  polynomial %s  star-commutes %s"
            % (row["members"], row["polynomial"], _yesno(row["star_commutes_with_shift"]))
        )


def _kernel_payload(dict_text: str | None, poly_text: str | None) -> dict:
    if dict_text is not None:
        d = Dictionary.from_text(dict_text)
        elements = kernel_texts(d)
        source = {"dictionary": str(d)}
    else:
        poly = Gf2Poly.parse(poly_text)
        elements = recurrence_kernel_texts(poly)
        source = {"polynomial": str(poly)}
    return {"kind": "kernel", "source": source, "elements": elements}


def _render_kernel(payload: dict) -> None:
    label, value = next(iter(payload["source"].items()))
    print("%s %s: %d kernel elements" % (label, value, len(payload["elements"])))
    for s in payload["elements"]:
        print("  %s" % s)


def _certificate_payload(poly_texts) -> dict:
    polys = [Gf2Poly.parse(t) for t in poly_texts]
    system = starcomm.DynamicalSystem.from_polys(polys)
    cert = starcomm.certify_system(system)
    return {
        "kind": "certificate",
        "generators": [str(p) for p in polys],
        "certificate": cert.to_json_dict(),
    }


def _render_certificate(payload: dict) -> None:
    cert = payload["certificate"]
    print("generators: %s" % ", ".join(payload["generators"]))
    print("valid: %s" % _yesno(cert["valid"]))
    for w in cert["witnesses"]:
        print("  shared factor %s between %s and %s" % (w["gcd"], w["pair"][0], w["pair"][1]))
    print("minimal: %s  (%s)" % (_yesno(cert["minimal"]), cert["minimality_argument"]))
    print("topologically free: %s" % _yesno(cert["topologically_free"]))
    print("simplicity: %s" % cert["simplicity_report"])


def _relations_payload(poly_texts, level: int) -> dict:
    polys = [Gf2Poly.parse(t) for t in poly_texts]
    system = starcomm.DynamicalSystem.from_polys(polys)
    report = matrixmodel.verify_relations(system, level)
    payload = {"kind": "relations", "generators": [str(p) for p in polys]}
    payload.update(report.to_json_dict())
    return payload


def _render_relations(payload: dict) -> None:
    print("generators: %s" % ", ".join(payload["generators"]))
    print("level: %d" % payload["level"])
    for name in sorted(payload["relations"]):
        print("  %s: %s" % (name, "holds" if payload["relations"][name] else "FAILS"))
    for detail in payload["pair_details"]:
        print(
            "  pair (%s, %s): gcd %s, coprime %s, star relation %s"
            % (
                detail["pair"][0],
                detail["pair"][1],
                detail["gcd"],
                _yesno(detail["coprime"]),
                "holds" if detail["holds"] else "FAILS",
            )
        )
    for name, w in sorted(payload["witnesses"].items()):
        print(
            "  witness for %s: entry (%s, %s) = %s for pair (%s)"
            % (name, w["row"], w["col"], w["value"], ", ".join(w["pair"]))
        )


def _ledrappier_payload(base_text: str, steps: int | None) -> dict:
    base = Word.from_str(base_text)
    bits = ledrappier.triangle_rows(base) if steps is None else ledrappier.stack_rows(base, steps)
    rows = [format(row, "0%db" % (base.length - i)) for i, row in enumerate(bits)]
    agree = len(rows) < 2 or rows[1] == str(ledrappier.conjugate_vertical(base).prefix(len(rows[1])))
    payload = {
        "kind": "ledrappier",
        "base": str(base),
        "rows": rows,
        "routes_agree": agree,
    }
    if steps is not None:
        payload["steps"] = steps
    return payload


def _render_ledrappier(payload: dict) -> None:
    for row in payload["rows"]:
        print(row)
    print("routes agree: %s" % _yesno(payload["routes_agree"]))


# Parsing leaves the parser unchanged, so one parser serves every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starshift",
        description="Analyze progressive dictionaries, their window maps and operator models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("analyze", help="classify one dictionary and its shift interaction")
    p.add_argument("dictionary", help="comma-separated member words, e.g. 01,10")
    add_json(p)

    p = sub.add_parser("classify", help="count and list the admissible dictionaries of one window")
    p.add_argument("window", type=int)
    add_json(p)

    p = sub.add_parser("kernel", help="list the sequences a map sends to zero")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dict", dest="dict_text", help="dictionary members, e.g. 01,10")
    group.add_argument("--poly", dest="poly_text", help="polynomial over GF(2), e.g. 1+t^2")
    add_json(p)

    p = sub.add_parser("certify", help="certify minimality and topological freeness")
    p.add_argument("polys", nargs="+", help="generator polynomials, e.g. t 1+t+t^2")
    add_json(p)

    p = sub.add_parser("verify", help="check the operator relations at a matrix level")
    p.add_argument("polys", nargs="+", help="generator polynomials")
    p.add_argument("--level", type=int, required=True, help="matrix level (word length)")
    add_json(p)

    p = sub.add_parser("ledrappier", help="complete a triangle patch over the two-cell dictionary")
    p.add_argument("base", help="base row bits, e.g. 1101")
    p.add_argument("--steps", type=int, default=None, help="stack this many rows instead")
    add_json(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = 0
    try:
        if args.command == "analyze":
            payload, render = _analysis_payload(Dictionary.from_text(args.dictionary)), _render_analysis
        elif args.command == "classify":
            payload, render = _classification_payload(args.window), _render_classification
        elif args.command == "kernel":
            payload, render = _kernel_payload(args.dict_text, args.poly_text), _render_kernel
        elif args.command == "certify":
            payload, render = _certificate_payload(args.polys), _render_certificate
        elif args.command == "verify":
            payload, render = _relations_payload(args.polys, args.level), _render_relations
            code = 0 if all(payload["relations"].values()) else 1
        elif args.command == "ledrappier":
            payload, render = _ledrappier_payload(args.base, args.steps), _render_ledrappier
        if args.json:
            print(_dumps(payload))
        else:
            render(payload)
        # A reader that closed the pipe early shows up here, not at exit.
        sys.stdout.flush()
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's own flush at exit cannot fail again,
        # and exit 128 + SIGPIPE, as a shell reports a writer stopped by a closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
