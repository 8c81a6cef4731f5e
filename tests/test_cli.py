"""Tests for the command-line interface and its JSON report schema."""

import functools
import importlib.resources as resources
import json
import os
import random
import shutil
import subprocess
import sys
import time

import jsonschema
import pytest

import starshift
import starshift.cli as cli
import starshift.dictionary as dictionary
import starshift.starcomm as starcomm
from starshift import (
    CylinderFunction,
    Dictionary,
    Gf2Poly,
    WindowMap,
    certify_system,
    classify_dictionary,
    enumerate_dictionaries,
    independence_profile,
    star_commute_windows,
    star_commutes_on_kernel,
)
from starshift.cli import _classification_payload, _dumps, build_parser, main
from starshift.starcomm import DynamicalSystem

SCHEMA = json.loads(
    resources.files("starshift").joinpath("schemas/cli.schema.json").read_text("utf-8")
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert err == ""
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return code, payload


def test_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


class TestAnalyze:
    def test_linear_admissible_dictionary(self, capsys):
        code, payload = run_json(capsys, ["analyze", "01,10"])
        assert code == 0
        record = payload["record"]
        assert record["members"] == "01,10"
        assert record["window"] == 2
        assert record["progressive"] and record["admissible"] and record["linear"]
        assert record["polynomial"] == "1+t"
        assert record["fiber_count"] == 2
        assert payload["kernel"] == [":0", ":1"]
        indep = payload["independence_vs_shift"]
        assert indep["star_commute"] is True
        assert indep["diagram_search"] is True
        assert indep["strongly_independent"] is True
        assert payload["certificate"]["valid"] is True

    def test_nonlinear_progressive_dictionary(self, capsys):
        code, payload = run_json(capsys, ["analyze", "00,11"])
        assert code == 0
        record = payload["record"]
        assert record["progressive"] is True
        assert record["linear"] is False
        assert record["polynomial"] is None
        assert sorted(payload["kernel"]) == [":01", ":10"]
        indep = payload["independence_vs_shift"]
        assert indep["star_commute"] is None
        assert indep["diagram_search"] in (True, False)
        assert payload["certificate"] is None

    def test_non_progressive_dictionary(self, capsys):
        code, payload = run_json(capsys, ["analyze", "00,01"])
        assert code == 0
        assert payload["record"]["progressive"] is False
        assert payload["kernel"] is None
        assert payload["independence_vs_shift"] is None

    def test_text_rendering(self, capsys):
        code, out, err = run(capsys, ["analyze", "01,10"])
        assert code == 0
        assert "dictionary: 01,10" in out
        assert "polynomial: 1+t" in out
        assert "kernel: :0, :1" in out

    def test_bad_dictionary_exits_2(self, capsys):
        code, out, err = run(capsys, ["analyze", "01,1"])
        assert code == 2
        assert err.startswith("error:")

    # int(part, 2) takes underscores, signs, blanks and 0b, so the explicit
    # 0/1 check must still name the offending member.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0_1,10", "word must consist of 0s and 1s: '0_1'"),
            (" 01,10", "word must consist of 0s and 1s: ' 01'"),
            ("+01,10", "word must consist of 0s and 1s: '+01'"),
            ("0b1,10", "word must consist of 0s and 1s: '0b1'"),
            ("01,1", "dictionary words must share one length"),
            ("01,0a,b1,10", "word must consist of 0s and 1s: '0a'"),
            ("00,01,1x", "word must consist of 0s and 1s: '1x'"),
            ("01,10,", "dictionary words must share one length"),
            # int("\u0661", 2) is 1, so only the 0/1 check refuses this member.
            ("01,1\u0661", "word must consist of 0s and 1s: '1\u0661'"),
            ("01,,10", "dictionary words must share one length"),
            ("", "dictionary window must be at least 2"),
        ],
    )
    def test_malformed_dictionary_text_keeps_its_error(self, capsys, text, message):
        assert run(capsys, ["analyze", text]) == (2, "", "error: %s\n" % message)


def search_route_payload(d):
    """`analyze`'s report with `diagram_search` from the word-level search
    against the shift, the route it took for a nonlinear dictionary before
    the rule test, and the gcd flags and certificate of a linear one."""
    record = classify_dictionary(d)
    keys = ("strongly_independent", "independent", "star_commute", "shared_kernel_witness")
    indep = dict.fromkeys(keys)
    indep["diagram_search"] = star_commute_windows(WindowMap.shift(), d.to_window_map()).star
    certificate = None
    if record.polynomial is not None:
        profile = independence_profile(Gf2Poly.t(), record.polynomial)
        witness = profile.shared_kernel_witness
        indep["strongly_independent"] = profile.strongly_independent
        indep["independent"] = profile.independent
        indep["star_commute"] = profile.star_commute
        indep["shared_kernel_witness"] = None if witness is None else str(witness)
        system = DynamicalSystem.from_polys([Gf2Poly.t(), record.polynomial], ["sigma", "theta"])
        certificate = certify_system(system).to_json_dict()
    return {
        "kind": "analysis",
        "record": record.to_json_dict(),
        "kernel": dictionary.kernel_texts(d),
        "independence_vs_shift": indep,
        "certificate": certificate,
    }


def nonlinear_progressive(count, windows, seed):
    """`count` seeded nonlinear progressive dictionaries with windows drawn from `windows`."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(windows)
        d = Dictionary(n, dictionary.progressive_mask(n, rng.getrandbits(1 << (n - 1))))
        if not classify_dictionary(d).linear:
            out.append(d)
    return out


class TestAnalyzeRoutes:
    """`analyze` reads `diagram_search` off the rule test, linear or not; no dictionary is searched."""

    class Searched(Exception):
        pass

    def test_analyze_never_reaches_the_search(self, monkeypatch, capsys):
        """With the search made to raise, every report is byte-identical to the
        search route's on every progressive dictionary of windows 2-4, every
        linear one of windows 5-9 and 100 seeded nonlinear progressive ones of
        windows 5-9, and no image table is built."""
        lengths = []
        image_table = dictionary._image_table

        def recording(m, length):
            lengths.append(length)
            return image_table(m, length)

        dicts = [d for n in range(2, 5) for d in enumerate_dictionaries(n, "progressive")]
        dicts += [d for n in range(5, 10) for d in enumerate_dictionaries(n, "admissible")]
        dicts += nonlinear_progressive(100, range(5, 10), 24)
        expected = {str(d): _dumps(search_route_payload(d)) + "\n" for d in dicts}
        assert len(expected) == 276 + 496 + 100

        def searched(*args):
            raise self.Searched()

        monkeypatch.setattr(starcomm, "star_commute_windows", searched)
        monkeypatch.setattr(cli, "star_commute_windows", searched, raising=False)
        monkeypatch.setattr(dictionary, "_image_table", recording)
        for members, text in expected.items():
            assert run(capsys, ["analyze", members, "--json"]) == (0, text, "")
        assert lengths == []
        assert run(capsys, ["analyze", "00,11"])[0] == 0


class TestClassify:
    def test_window_two(self, capsys):
        code, payload = run_json(capsys, ["classify", "2"])
        assert code == 0
        assert payload["counts"] == {
            "total": 16,
            "progressive": 4,
            "admissible": 2,
            "star_commuting_with_shift": 1,
        }
        rows = payload["admissible"]
        assert [r["members"] for r in rows] == ["01,10", "01,11"]
        assert [r["polynomial"] for r in rows] == ["1+t", "t"]
        assert [r["star_commutes_with_shift"] for r in rows] == [True, False]

    def test_window_three(self, capsys):
        code, payload = run_json(capsys, ["classify", "3"])
        assert code == 0
        assert payload["counts"] == {
            "total": 256,
            "progressive": 16,
            "admissible": 4,
            "star_commuting_with_shift": 2,
        }
        polys = sorted(r["polynomial"] for r in payload["admissible"])
        assert polys == ["1+t+t^2", "1+t^2", "t+t^2", "t^2"]
        stars = {r["polynomial"]: r["star_commutes_with_shift"] for r in payload["admissible"]}
        assert stars == {
            "1+t^2": True,
            "1+t+t^2": True,
            "t+t^2": False,
            "t^2": False,
        }

    def test_closed_form_matches_enumeration(self):
        """The closed-form report equals the one built by classifying every
        progressive dictionary and deciding *-commutation on kernels."""
        for n in range(2, 6):
            progressive = 0
            rows = []
            for d in enumerate_dictionaries(n, "progressive"):
                record = classify_dictionary(d)
                progressive += record.progressive
                if record.admissible:
                    star = star_commutes_on_kernel(Gf2Poly.t(), record.polynomial)
                    rows.append((record.members, str(record.polynomial), star))
            rows.sort()
            oracle = {
                "kind": "classification",
                "window": n,
                "counts": {
                    "total": 1 << (1 << n),
                    "progressive": progressive,
                    "admissible": len(rows),
                    "star_commuting_with_shift": sum(star for _, _, star in rows),
                },
                "admissible": [
                    {"members": m, "polynomial": p, "star_commutes_with_shift": star}
                    for m, p, star in rows
                ],
            }
            dump = functools.partial(json.dumps, indent=2, sort_keys=True)
            assert dump(_classification_payload(n)) == dump(oracle)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_listing_matches_the_dictionary_route(self, n):
        """Rows read off the polynomials' bits equal rows printed through a
        Dictionary and a WindowMap per polynomial, for every window the
        listing budget admits."""
        top = 1 << (n - 1)
        rows = []
        for low in range(top):
            p = Gf2Poly(top | low)
            rows.append((str(Dictionary(n, WindowMap.from_poly(p).rule)), str(p), bool(low & 1)))
        rows.sort()
        oracle = {
            "kind": "classification",
            "window": n,
            "counts": {
                "total": 1 << (1 << n),
                "progressive": 1 << top,
                "admissible": top,
                "star_commuting_with_shift": top >> 1,
            },
            "admissible": [
                {"members": m, "polynomial": p, "star_commutes_with_shift": star}
                for m, p, star in rows
            ],
        }
        assert _classification_payload(n) == oracle

    @pytest.mark.parametrize("n", range(6, 12))
    def test_windows_up_to_the_listing_budget_need_no_flag(self, capsys, n):
        code, payload = run_json(capsys, ["classify", str(n)])
        assert code == 0
        assert payload == _classification_payload(n)

    def test_there_is_no_window_limit_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "5", "--max-n", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --max-n 5" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["classify", "--help"])
        assert "--max-n" not in capsys.readouterr().out

    def test_window_out_of_range(self, capsys):
        for argv in [["classify", "1"], ["classify", "0"], ["classify", "12"]]:
            code, out, err = run(capsys, argv)
            assert code == 2
            assert err.startswith("error:")


class TestKernel:
    def test_dictionary_and_polynomial_routes_agree(self, capsys):
        _, from_dict = run_json(capsys, ["kernel", "--dict", "01,10"])
        _, from_poly = run_json(capsys, ["kernel", "--poly", "1+t"])
        assert from_dict["elements"] == from_poly["elements"] == [":0", ":1"]
        assert from_dict["source"] == {"dictionary": "01,10"}
        assert from_poly["source"] == {"polynomial": "1+t"}

    def test_larger_polynomial(self, capsys):
        code, payload = run_json(capsys, ["kernel", "--poly", "1+t+t^2"])
        assert code == 0
        assert sorted(payload["elements"]) == [":0", ":011", ":101", ":110"]

    def test_zero_polynomial_exits_2(self, capsys):
        code, out, err = run(capsys, ["kernel", "--poly", "0"])
        assert code == 2
        assert err.startswith("error:")

    def test_non_progressive_dictionary_exits_2(self, capsys):
        code, out, err = run(capsys, ["kernel", "--dict", "00,01"])
        assert code == 2


class TestCertify:
    def test_valid_pair(self, capsys):
        code, payload = run_json(capsys, ["certify", "t", "1+t"])
        assert code == 0
        cert = payload["certificate"]
        assert payload["generators"] == ["t", "1+t"]
        assert cert["valid"] and cert["minimal"] and cert["topologically_free"]
        assert cert["witnesses"] == []

    def test_shared_factor_pair(self, capsys):
        code, payload = run_json(capsys, ["certify", "t", "t+t^2"])
        assert code == 0
        cert = payload["certificate"]
        assert cert["valid"] is False
        assert cert["witnesses"] == [{"pair": ["p1", "p2"], "gcd": "t"}]

    def test_text_rendering(self, capsys):
        code, out, err = run(capsys, ["certify", "t", "t+t^2"])
        assert code == 0
        assert "shared factor t between p1 and p2" in out

    def test_bad_polynomial_exits_2(self, capsys):
        code, out, err = run(capsys, ["certify", "t", "q"])
        assert code == 2


class TestVerify:
    def test_coprime_pair_exits_0(self, capsys):
        code, payload = run_json(capsys, ["verify", "t", "1+t", "--level", "5"])
        assert code == 0
        assert all(payload["relations"].values())
        assert payload["level"] == 5

    def test_failing_relation_exits_1(self, capsys):
        code, out, err = run(capsys, ["verify", "t", "t+t^2", "--level", "6", "--json"])
        assert code == 1
        payload = json.loads(out)
        VALIDATOR.validate(payload)
        assert payload["relations"]["III"] is False
        assert payload["witnesses"]["III"]["value"] == "1/4√2"

    def test_text_rendering_marks_failures(self, capsys):
        code, out, err = run(capsys, ["verify", "t", "t+t^2", "--level", "6"])
        assert code == 1
        assert "III: FAILS" in out
        assert "witness for III" in out

    def test_level_too_small_exits_2(self, capsys):
        code, out, err = run(capsys, ["verify", "t", "--level", "0"])
        assert code == 2

    def test_level_over_budget_exits_2(self, capsys):
        code, out, err = run(capsys, ["verify", "t", "1+t", "--level", "60"])
        assert code == 2
        assert out == ""
        assert "2^61 = 2305843009213693952 entries" in err

    @pytest.mark.parametrize("level, power", [(100000, 100001), (100000000000, 100000000001)])
    def test_huge_level_is_refused_by_its_power_of_two(self, capsys, level, power):
        """The budget compares exponents, so no 2^level integer is built or printed."""
        code, out, err = run(capsys, ["verify", "t", "--level", str(level), "--json"])
        assert (code, out) == (2, "")
        assert err == (
            "error: level %d needs an image table of 2^%d entries, over the budget of 2^24\n"
            % (level, power)
        )

    def test_frame_over_budget_exits_2(self, capsys):
        code, out, err = run(capsys, ["verify", "t", "1+t+t^7", "--level", "14"])
        assert code == 2
        assert out == ""
        assert err == "error: degree 7 needs a composite frame of 2^29 entries, over the budget of 2^24\n"


class TestLedrappier:
    def test_complete_patch(self, capsys):
        code, payload = run_json(capsys, ["ledrappier", "1101"])
        assert code == 0
        assert payload["rows"] == ["1101", "011", "10", "1"]
        assert payload["routes_agree"] is True
        assert "steps" not in payload

    def test_partial_stack(self, capsys):
        code, payload = run_json(capsys, ["ledrappier", "1101", "--steps", "2"])
        assert code == 0
        assert payload["rows"] == ["1101", "011", "10"]
        assert payload["steps"] == 2
        assert payload["routes_agree"] is True

    def test_text_rendering(self, capsys):
        code, out, err = run(capsys, ["ledrappier", "1101"])
        assert code == 0
        assert out.splitlines()[:4] == ["1101", "011", "10", "1"]

    def test_single_cell_base(self, capsys):
        code, payload = run_json(capsys, ["ledrappier", "1"])
        assert code == 0
        assert payload["rows"] == ["1"]
        assert payload["routes_agree"] is True

    def test_errors_exit_2(self, capsys):
        code, out, err = run(capsys, ["ledrappier", "1101", "--steps", "9"])
        assert code == 2
        assert err.startswith("error:")

    def test_negative_steps_exit_2(self, capsys):
        code, out, err = run(capsys, ["ledrappier", "1101", "--steps", "-3", "--json"])
        assert (code, out, err) == (2, "", "error: steps must be nonnegative, got -3\n")

    @pytest.mark.parametrize(
        "bits, steps, symbols",
        [
            (8192, None, 8192 * 8193 // 2),
            (20000, None, 20000 * 20001 // 2),
            (20000, 2000, 2001 * 20000 - 2000 * 2001 // 2),
        ],
        ids=["8192-bits", "20000-bits", "20000-bits-2000-steps"],
    )
    def test_listing_over_budget_exits_2_at_once(self, capsys, bits, steps, symbols):
        argv = ["ledrappier", "10" * (bits // 2)]
        if steps is not None:
            argv += ["--steps", str(steps)]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        rows = bits if steps is None else steps + 1
        assert err == (
            "error: a base of %d symbols lists %d rows, %d symbols in all, "
            "over the budget of 2^25 symbols\n" % (bits, rows, symbols)
        )

    def test_schema_requires_nonnegative_steps(self, capsys):
        code, payload = run_json(capsys, ["ledrappier", "1101", "--steps", "0"])
        assert code == 0
        payload["steps"] = -3
        with pytest.raises(jsonschema.ValidationError):
            VALIDATOR.validate(payload)


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["classify", "2", "--frobnicate"])
        assert exc.value.code == 2

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_match_fresh_processes(self, capsys):
        calls = (
            ["classify", "3", "--json"],
            ["kernel", "--poly", "1+t^2"],
            ["classify", "2", "--frobnicate"],
            ["analyze", "01,10", "--json"],
            ["kernel", "--dict", "00,11", "--json"],
            ["certify", "t", "t+t^2"],
            ["verify", "t", "1+t", "--level", "5", "--json"],
            ["ledrappier", "1101", "--steps", "2"],
            ["classify", "9"],
            [],
            ["classify", "4"],
        )
        src = os.path.dirname(os.path.dirname(starshift.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "starshift.cli", *argv], capture_output=True, text=True, env=env
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


class TestTypedErrors:
    def test_numerator_overflow_exits_2(self, capsys, monkeypatch):
        from starshift import matrixmodel

        big = CylinderFunction.from_values(1, [1 << 31, 1])
        monkeypatch.setattr(matrixmodel, "standard_frame", lambda m: [big])
        code, out, err = run(capsys, ["verify", "t", "1+t", "--level", "5"])
        assert (code, out) == (2, "")
        assert err == "error: frame numerators grew unexpectedly large\n"

    @pytest.mark.parametrize(
        "argv", [["kernel", "--poly", "t^100000000000"], ["verify", "1+t^100000000000", "--level", "7"]]
    )
    def test_huge_exponent_is_refused_before_allocation(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: exponent 100000000000 over the limit of 2^16\n"


    @pytest.mark.parametrize(
        "poly, message",
        [
            ("t^1_0", "cannot parse polynomial term 't^1_0'"),
            ("1+t^\u0663", "cannot parse polynomial term 't^\u0663'"),
            ("t^+3", "cannot parse polynomial term 't^'"),
            ("t^" + "9" * 5000, "exponent %s over the limit of 2^16" % ("9" * 5000)),
            ("t^00065537", "exponent 65537 over the limit of 2^16"),
        ],
        ids=["underscore", "arabic-indic-digit", "signed", "5000-digits", "leading-zeros"],
    )
    def test_exponents_are_ascii_digits_within_the_limit(self, capsys, poly, message):
        code, out, err = run(capsys, ["kernel", "--poly", poly])
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("window", [12, 13, 26, 27, 10**9])
    def test_classify_listing_over_budget_exits_2_at_once(self, capsys, window):
        start = time.perf_counter()
        code, out, err = run(capsys, ["classify", str(window), "--json"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: window %d lists 2^%d dictionaries of 2^%d words of %d symbols, "
            "over the budget of 2^25 symbols\n" % (window, window - 1, window - 1, window)
        )

    def test_classify_window_11_is_within_budget(self):
        """11 * 4^10 symbols are under 2^25: the largest window the budget admits."""
        rows = _classification_payload(11)["admissible"]
        assert len(rows) == 1024
        assert sum(len(row["members"]) for row in rows) == 1024 * (1024 * 12 - 1)

    @pytest.mark.parametrize("poly, degree", [("t^40", 40), ("1+t^26", 26), ("1+t^13", 13)])
    def test_kernel_listing_over_budget_exits_2_at_once(self, capsys, poly, degree):
        start = time.perf_counter()
        code, out, err = run(capsys, ["kernel", "--poly", poly])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: a degree-%d kernel lists 2^%d elements of up to %d + 2^%d symbols, "
            "over the budget of 2^25 symbols\n" % (degree, degree, degree, degree)
        )

    def test_dictionary_kernel_over_budget_exits_2(self, capsys):
        text = str(Dictionary(14, WindowMap.from_poly(Gf2Poly(1 << 13)).rule))
        for argv in (["kernel", "--dict", text], ["analyze", text]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: a degree-13 kernel lists 2^13 elements"), argv

    @pytest.mark.parametrize("window", [25, 30])
    def test_dictionary_window_over_budget_exits_2_at_once(self, capsys, window):
        for argv in (["analyze", "0" * window], ["kernel", "--dict", "1" * window]):
            start = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err == (
                "error: window %d needs a rule table of 2^%d entries, over the budget of 2^24\n"
                % (window, window)
            )

    def test_large_dictionary_is_refused_in_under_a_second(self, capsys):
        """Window 18 passes the table budget and is refused by the kernel budget."""
        text = str(Dictionary(18, WindowMap.from_poly(Gf2Poly((1 << 17) | 1)).rule))
        start = time.perf_counter()
        code, out, err = run(capsys, ["analyze", text])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: a degree-17 kernel lists 2^17 elements")


class TestClosedPipe:
    def test_closed_stdout_exits_141_without_a_traceback(self):
        """141 is 128 + SIGPIPE, what a shell reports for a writer stopped by a
        closed pipe, so a truncated report is not read as a failed relation."""
        src = os.path.dirname(os.path.dirname(starshift.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # 512 lines of up to 520 symbols: far more than a pipe buffer holds.
        proc = subprocess.Popen(
            [sys.executable, "-m", "starshift.cli", "kernel", "--poly", "1+t^4+t^9"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"polynomial 1+t^4+t^9: 512 kernel elements\n"
        assert err == b""


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("starshift")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run(
            [exe, "classify", "2", "--json"], capture_output=True, text=True
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        VALIDATOR.validate(payload)
        assert payload["counts"]["admissible"] == 2
