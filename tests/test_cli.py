import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import canonlab.cli as cli_mod
import canonlab.verify as verify_mod
from canonlab.cli import build_parser, load_poset, main, run
from canonlab.poset import canon_labeling, chain, poset_to_json, product_with_chain
from canonlab.verify import VERIFY_CHECKS


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """stderr of an argv the parser refuses: exit 2, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, ""), argv
    return captured.err


class TestPoly:
    def test_canon_example(self, capsys):
        code, out, _ = invoke(capsys, "poly", "canon", "--m", "3", "--n", "2")
        assert code == 0
        assert "coeffs [1, 4, 4, 1]" in out

    def test_json_decimal_strings(self, capsys):
        code, out, _ = invoke(capsys, "poly", "canon", "--m", "3", "--n", "2",
                              "--format", "json")
        assert code == 0
        assert json.loads(out) == {"coeffs": ["1", "4", "4", "1"]}

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "poly", "narayana", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["exponent,coefficient", "0,1", "1,3", "2,1"]

    def test_eulerian(self, capsys):
        code, out, _ = invoke(capsys, "poly", "eulerian", "--n", "3")
        assert code == 0 and "coeffs [1, 4, 1]" in out

    def test_dissonant_with_removals(self, capsys):
        code, out, _ = invoke(capsys, "poly", "dissonant", "--m", "2", "--n", "2",
                              "--remove", "2:1")
        assert code == 0 and "coeffs [1, 4, 1]" in out

    def test_weak_descent(self, capsys):
        code, out, _ = invoke(capsys, "poly", "weak-descent", "--m", "2", "--n", "2")
        assert code == 0 and "coeffs [0, 1, 2, 1]" in out

    def test_weak_descent_is_canon_under_reversed_rows(self, capsys):
        # 9! sigmas as descent classes, past the bound of the n!-lane oracle
        weak = invoke(capsys, "poly", "weak-descent", "--m", "2", "--n", "9")
        canon = invoke(capsys, "poly", "canon", "--m", "2", "--n", "9", "--w", "reverse")
        assert weak[0] == 0 and weak == canon

    def test_hstar_checked(self, capsys):
        code, out, _ = invoke(capsys, "poly", "hstar", "--m", "3", "--n", "2", "--checked")
        assert code == 0 and "coeffs [1, 4, 4, 1]" in out

    def test_missing_arguments(self, capsys):
        for argv, missing in (
            (("poly", "canon", "--m", "3"), "--n"),
            (("poly", "eulerian"), "--n"),
            (("sweep", "gamma", "--n", "2"), "--m"),
            (("gamma", "--m", "2"), "--n"),
        ):
            err = usage_error(capsys, *argv)
            assert f"the following arguments are required: {missing}" in err, argv

    def test_cap_exceeded(self, capsys):
        # a sum is bounded by its work, not by |P|*n: (4,4) runs, while
        # (9,8)'s 128 lanes pass the kernel's work bound
        code, out, _ = invoke(capsys, "poly", "canon", "--m", "4", "--n", "4")
        assert (code, out) == (0, invoke(capsys, "poly", "canon-product", "--m", "4", "--n", "4")[1])
        code, out, err = invoke(capsys, "poly", "canon", "--m", "9", "--n", "8")
        assert (code, out) == (2, "") and "too large" in err

    def test_force_cap(self, capsys):
        # --force-cap still parses, and changes no byte of any command
        for argv in (
            ("poly", "canon", "--m", "2", "--n", "2"),
            ("poly", "dissonant", "--m", "2", "--n", "3", "--remove", "1:1"),
            ("poly", "weak-descent", "--m", "2", "--n", "3"),
            ("verify", "cor-3.4", "--m", "2", "--n", "3"),
            ("sweep", "gamma", "--m", "2", "--n", "3"),
            ("gamma", "--m", "3", "--n", "3"),
            ("poly", "canon", "--m", "1", "--n", "40"),
        ):
            assert invoke(capsys, *argv, "--force-cap", "30") == invoke(capsys, *argv), argv

    def test_constructor_errors_exit_2(self, capsys):
        for argv, message in (
            (("poly", "canon", "--m", "0", "--n", "2"), "chain size"),
            (("poly", "eulerian", "--n", "0"), "n must be"),
            (("poly", "dissonant", "--m", "2", "--n", "3", "--remove", "5:1"), "out of range"),
            (("poly", "dissonant", "--m", "2", "--n", "3", "--remove", "zz"),
             "bad --remove entry 'zz'"),
            (("sweep", "gamma", "--m", "2", "--n", "0"), "chain factor must have size >= 1"),
            (("poly", "eulerian", "--n", "100000"), "exceeds the bound 1000"),
            (("poly", "narayana", "--n", "100000"), "exceeds the bound 1000"),
            (("poly", "canon-product", "--m", "1", "--n", "100000"), "exceeds the bound 1000"),
            (("verify", "thm-2.3", "--n", "30"), "the walk at n=30"),
            (("verify", "cor-2.4", "--n", "100000"), "exceeds the bound 1000"),
            # each refused by a bound before any sum: unbounded, they run
            # for minutes to hours or exhaust memory
            (("verify", "cor-4.1", "--m", "2", "--n", "6"), "1024 subposets x 6!"),
            (("verify", "cor-4.1", "--m", "1", "--n", "9"), "256 subposets x 9!"),
            (("poly", "canon", "--m", "9", "--n", "8"), "too large"),
            (("verify", "cor-3.4", "--m", "9", "--n", "8"), "too large"),
            (("sweep", "gamma", "--m", "17", "--n", "2"), "2^17 subposets exceed the bound 1024"),
            (("sweep", "gamma", "--m", "1000000", "--n", "100000"), "subposets exceed the bound 1024"),
            # the kernel's work bound counts the 2^16 or 2^15 descent
            # classes as lanes, so it refuses before any class is built
            (("poly", "canon", "--m", "1", "--n", "40"), "lanes x transitions x elements"),
            (("poly", "canon", "--m", "2", "--n", "17"), "lanes x transitions x elements"),
            (("verify", "prop-3.6", "--m", "2", "--n", "17"), "lanes x transitions x elements"),
            (("poly", "dissonant", "--m", "1", "--n", "17", "--remove", "1:3"),
             "lanes x transitions x elements"),
        ):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and message in err, argv

    def test_bad_edge_same_error_in_every_command(self, capsys):
        # one check names an out-of-range cover, whatever the command
        message = "error: removable edge (row=5, j=1) out of range\n"
        for argv in (
            ("poly", "dissonant", "--m", "2", "--n", "3"),
            ("poly", "hstar", "--m", "2", "--n", "3"),
            ("poly", "hstar", "--m", "2", "--n", "3", "--checked"),
            ("extensions", "--m", "2", "--n", "3"),
        ):
            assert invoke(capsys, *argv, "--remove", "5:1") == (2, "", message), argv

    def test_hstar_takes_no_force_cap(self, capsys):
        # h* sums over no column labelings, so it has no cap to raise
        argv = ("poly", "hstar", "--m", "3", "--n", "3")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and "coeffs [1, " in out
        err = usage_error(capsys, *argv, "--force-cap", "4")
        assert "unrecognized arguments: --force-cap 4" in err

    def test_hstar_past_64_elements(self, capsys):
        code, out, _ = invoke(capsys, "poly", "hstar", "--m", "9", "--n", "8")
        assert code == 0 and out.startswith("coeffs [1, ")

    def test_labeling_bound(self, capsys):
        # the oracles that list sigma refuse 10! labelings at once; a sum
        # lists none, so it runs
        for argv in (("verify", "cor-3.4", "--m", "1", "--n", "10"),
                     ("verify", "prop-5.2", "--m", "1", "--n", "10")):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, "") and "10! column labelings" in err, argv
            assert time.perf_counter() - start < 1, argv
        for kind in ("canon", "weak-descent"):
            code, out, _ = invoke(capsys, "poly", kind, "--m", "1", "--n", "10")
            assert code == 0 and out.startswith("coeffs [1, 1013, 47840, "), kind

    def test_canon_product_of_a_long_chain(self, capsys):
        code, out, _ = invoke(capsys, "poly", "canon-product", "--m", "1100", "--n", "1")
        assert code == 0 and out.splitlines()[0] == "coeffs [1]"


class TestVerify:
    def test_thm_main(self, capsys):
        code, out, _ = invoke(capsys, "verify", "thm-main", "--m", "2", "--n", "2")
        assert code == 0
        assert "[ok]" in out and "1/1 checks hold" in out

    def test_every_registered_statement(self, capsys):
        for name in VERIFY_CHECKS:
            code, out, _ = invoke(capsys, "verify", name)
            assert code == 0, (name, out)

    def test_all(self, capsys):
        code, out, _ = invoke(capsys, "verify", "all")
        assert code == 0
        assert "checks hold" in out

    def test_unknown_statement(self, capsys):
        code, _, err = invoke(capsys, "verify", "thm-9.9")
        assert code == 2 and "unknown statement" in err

    def test_nothing_to_check_exits_2(self, capsys):
        # a run of zero checks must not read as "0/0 checks hold", and an
        # explicit --m or --n of 0 is not the default
        for argv, message in (
            (("verify", "thm-2.3", "--n", "-1"), "no checks ran for thm-2.3"),
            (("verify", "thm-1.1", "--m", "0"), "no checks ran for thm-1.1"),
            (("verify", "cor-5.1", "--n", "0"), "no checks ran for cor-5.1"),
            (("verify", "cor-2.4", "--n", "0"), "no checks ran for cor-2.4"),
            (("verify", "remark-product", "--m", "0"), "no checks ran for remark-product"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and message in err and err.count("\n") == 1, argv

    def test_lone_option_narrows_default_grids(self, capsys):
        # a lone --m or --n keeps the default cases it matches; m and n both
        # known (given, or shared by every default case) name one grid, and
        # None marks an argv that leaves nothing to check
        for argv, names in (
            (("cor-3.4", "--n", "3"), ["shift-law m=1 n=3", "shift-law m=2 n=3",
                                       "shift-law m=3 n=3"]),
            (("cor-3.4", "--m", "2"), ["shift-law m=2 n=2", "shift-law m=2 n=3"]),
            (("prop-3.6", "--n", "2"), [f"checked-product m={m} n=2" for m in (1, 2, 3)]),
            (("prop-3.6", "--m", "3", "--n", "3"), ["checked-product m=3 n=3"]),
            (("cor-2.4", "--n", "215"), ["narayana-hstar n=215"]),
            (("thm-1.2", "--n", "1"), [f"labeled-product {name} n=1" for name in (
                "chain1", "chain2", "chain2-rev", "chain3", "chain3-rev",
                "vee", "vee-k1", "wedge", "wedge-k1")]),
            (("thm-1.2", "--m", "7"), None),
            (("cor-2.4", "--m", "3", "--n", "2"), None),
            (("thm-2.3", "--m", "5"), None),
            (("thm-2.3", "--n", "3"), ["dyck-bijection n=3"]),
            (("remark-product", "--n", "5"), ["generalized-product m=2 |P'|=5"] * 3),
            (("remark-product", "--m", "3"), ["generalized-product m=3 |P'|=3"] * 3),
        ):
            code, out, err = invoke(capsys, "verify", *argv)
            if names is None:
                assert (code, out) == (2, "") and "no checks ran" in err, argv
            else:
                assert code == 0, argv
                assert [line[len("[ok] "):] for line in out.splitlines()[:-1]] == names, argv

    def test_non_dyck_image_is_a_failed_check(self, capsys, monkeypatch):
        # a counterexample to the bijection is a failed check (exit 1),
        # not a usage error (exit 2)
        monkeypatch.setattr(verify_mod, "dyck_from_linext",
                            lambda p, order: "ne" * (len(order) // 2))
        code, out, err = invoke(capsys, "verify", "thm-2.3", "--n", "2")
        assert (code, err) == (1, "")
        assert "[FAIL] dyck-bijection n=2  (nene is not a Dyck path at (0, 1, 2, 3))" in out
        assert "0/1 checks hold" in out

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "cor-2.4", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["holds"] for entry in payload)

    def test_one_kernel_call_per_poset_and_row_labeling(self, capsys, monkeypatch):
        import canonlab.kernel as kernel_mod

        calls = []  # the labelings of each call
        real = kernel_mod.descent_histograms

        def counted(poset, labelings, *args, **kwargs):
            calls.append(len(labelings))
            return real(poset, labelings, *args, **kwargs)

        monkeypatch.setattr(kernel_mod, "descent_histograms", counted)
        # cor-3.4 at (2,3): one grid under every one of its 6 labelings
        assert invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")[0] == 0
        assert calls == [6]
        # cor-4.1 at (2,2): 4 subposets under two row labelings, 2 sigmas each
        calls.clear()
        assert invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "2")[0] == 0
        assert calls == [2] * 8
        # a sum runs one lane per descent class: 2^5 of the 720 sigmas at n = 6
        calls.clear()
        assert invoke(capsys, "poly", "canon", "--m", "2", "--n", "6")[0] == 0
        assert calls == [32]

    def test_subposet_checks_sum_once_per_orbit(self, capsys, monkeypatch):
        import canonlab.kernel as kernel_mod

        calls = []
        real = kernel_mod.descent_histograms

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "descent_histograms", counted)
        # (2,5)'s 256 masks fall in 88 orbits, and its 31 fixed-row masks
        # in 16, each summed once under either row labeling
        for statement, sums in (("thm-4.3", 176), ("cor-5.3", 32)):
            calls.clear()
            assert invoke(capsys, "verify", statement, "--m", "2", "--n", "5")[0] == 0
            assert len(calls) == sums, statement

    def test_refused_before_any_case_runs(self, capsys, monkeypatch):
        # every statement name is resolved, and cor-4.1's masks x n! bound
        # checked on every selected case, before the first case runs: no
        # kernel call, where cor-3.4 at (1,9) would make one of 9! lanes
        import canonlab.kernel as kernel_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(kernel_mod, "descent_histograms", refuse)
        for argv, message in ((("cor-3.4", "nope"), "unknown statement 'nope'"),
                              (("all",), "256 subposets x 9! column labelings exceed"),
                              (("cor-3.4", "cor-4.1"), "256 subposets x 9! column labelings")):
            code, out, err = invoke(capsys, "verify", *argv, "--m", "1", "--n", "9")
            assert (code, out) == (2, "") and message in err, argv

    def test_degree_check_builds_each_witness_once(self, capsys, monkeypatch):
        # lemma-4.2 reports every mask under both row labelings, and the
        # row-block witness is valid or not by the mask alone: one subposet
        # built per mask, 256 at (2,5), not one per report
        from canonlab.canon import AmphibianSpec

        built = []
        real = AmphibianSpec.poset

        def counted(spec):
            built.append(spec.mask)
            return real(spec)

        monkeypatch.setattr(AmphibianSpec, "poset", counted)
        verify_mod._witness_valid.cache_clear()
        code, out, _ = invoke(capsys, "verify", "lemma-4.2", "--m", "2", "--n", "5")
        assert code == 0 and "512/512 checks hold" in out
        assert sorted(built) == list(range(256))

    def test_shift_law_refused_before_any_labeling(self, capsys, monkeypatch):
        # the kernel's work bound counts the n! lanes, or the e(P') words of
        # the second poset, and refuses them before a sigma or a word is
        # listed or a canon labeling is built
        import canonlab.canon as canon_mod

        built, listed, extensions = [], [], []
        real_labeling, real_permutations = canon_mod.canon_labeling, verify_mod.permutations
        real_extensions = verify_mod.enumerate_linear_extensions

        def counted(w, sigma):
            built.append(1)
            return real_labeling(w, sigma)

        def counted_sigmas(values):
            for sigma in real_permutations(values):
                listed.append(sigma)
                yield sigma

        def counted_extensions(p):
            for ext in real_extensions(p):
                extensions.append(ext)
                yield ext

        monkeypatch.setattr(canon_mod, "canon_labeling", counted)
        monkeypatch.setattr(verify_mod, "permutations", counted_sigmas)
        monkeypatch.setattr(verify_mod, "enumerate_linear_extensions", counted_extensions)
        for argv in (("cor-3.4", "--m", "9", "--n", "8"), ("cor-3.4", "--m", "2", "--n", "9"),
                     ("prop-5.2", "--m", "2", "--n", "9"), ("remark-product", "--n", "9")):
            code, out, err = invoke(capsys, "verify", *argv)
            assert (code, out) == (2, "") and "lanes x transitions x elements" in err, argv
        assert built == listed == extensions == []
        assert invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")[0] == 0
        # the kernel walks the 6 sigmas, and the check walks them again
        assert (len(built), len(listed)) == (6, 12)

    def test_shift_checks_under_the_cap(self, capsys):
        # at (2,7), cor-3.4's 5,040 lanes run with no flag, while cor-4.1's
        # 2^12 subposets pass the subposet bound
        code, out, _ = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "7")
        assert code == 0 and "1/1 checks hold" in out
        code, out, err = invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "7")
        assert (code, out) == (2, "") and "2^12 subposets exceed the bound 1024" in err

    def test_shift_law_compares_every_row(self, capsys, monkeypatch):
        real = verify_mod.canon_rows

        def perturbed(q, w, sigmas):
            # the last row gains one extension as it passes through the stream
            rows = real(q, w, sigmas)
            for _ in range(len(sigmas) - 1):
                yield next(rows)
            last = next(rows)
            yield [last[0] + 1] + last[1:]

        monkeypatch.setattr(verify_mod, "canon_rows", perturbed)
        code, out, _ = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")
        assert code == 1
        assert "[FAIL] shift-law m=2 n=3  (failed at sigma=(3, 2, 1))" in out


class TestSweep:
    def test_gamma_2x3(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "3")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("mask=")]
        assert len(rows) == 16
        assert all("gamma-positive: true" in row for row in rows)

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "2",
                              "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "removed_edge_mask,degree,palindromic,gamma,gamma_positive,unimodal,mode"
        assert len(lines) == 5

    def test_determinism_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "2", "4"):
            code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "3",
                                  "--format", "csv", "--jobs", jobs)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "2",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert payload["violations"] == []

    def test_subposet_bound(self, capsys):
        # a sweep and lemma-4.2 list no sigma, so only the 2^10 subposet
        # bound applies: (2,6)'s 1024 subposets run, while cor-4.1, which
        # lists 6! sigmas on each, is refused at once
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "6")
        assert code == 0 and "1024 subposets swept, 0 gamma-negative" in out
        code, out, _ = invoke(capsys, "verify", "lemma-4.2", "--m", "2", "--n", "6")
        assert code == 0 and "2048/2048 checks hold" in out
        for argv, message in (
            (("sweep", "gamma", "--m", "2", "--n", "7"), "2^12 subposets exceed the bound 1024"),
            (("verify", "cor-4.1", "--m", "2", "--n", "6"), "1024 subposets x 6! column labelings"),
        ):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, "") and message in err, argv
            assert time.perf_counter() - start < 1, argv

    def test_force_cap_reaches_rows(self, capsys):
        # no |P|*n cap: (13,1) runs, and the flag changes nothing
        argv = ("sweep", "gamma", "--m", "13", "--n", "1")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and "1 subposets swept" in out
        assert invoke(capsys, *argv, "--force-cap", "13") == (0, out, "")

    def test_violation_exits_nonzero_with_certificate(self, capsys, monkeypatch):
        # no gamma-negative subposet exists at desk scale, so exercise the
        # reporting path with synthetic rows: a gamma-positive one, a
        # gamma-negative one and one that is not palindromic
        import canonlab.sweep as sweep_mod
        from canonlab.canon import AmphibianSpec
        from canonlab.polys import IntPolynomial
        from canonlab.sweep import _sweep_row

        polys = ((1, 2, 1), (1, -1, 1), (1, 1, 0, 1))
        rows = tuple(_sweep_row(AmphibianSpec(2, 2, mask), IntPolynomial(coeffs))
                     for mask, coeffs in enumerate(polys))
        monkeypatch.setattr(sweep_mod, "conjecture_sweep", lambda *a, **k: rows)
        expected = [
            ([[1, 1]], ["1", "-1", "1"], [1, -3], "gamma-negative at index 1"),
            ([[2, 1]], ["1", "1", "0", "1"], [], "not palindromic over the center window"),
        ]
        for fmt in ("plain", "csv", "json"):
            code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "2",
                                  "--format", fmt)
            assert code == 1, fmt
            certs = [json.loads(line) for line in out.splitlines()[-2:]]
            if fmt == "json":
                assert json.loads(out.splitlines()[0])["violations"] == certs
            elif fmt == "plain":
                assert "3 subposets swept, 2 gamma-negative" in out
            for cert, (removed, coeffs, gamma, violation) in zip(certs, expected):
                assert cert == {
                    "spec": {"m": 2, "n": 2, "removed": removed},
                    "poset": poset_to_json(AmphibianSpec.from_removed(2, 2, removed).poset()),
                    "polynomial": {"coeffs": coeffs},
                    "gamma": gamma,
                    "violation": violation,
                }, fmt


class TestGammaCommand:
    def test_3x2(self, capsys):
        code, out, _ = invoke(capsys, "gamma", "--m", "3", "--n", "2")
        assert code == 0
        assert "gamma [1, 1]" in out
        assert "matches: true" in out
        assert "112122" in out and "111222" in out

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "gamma", "--m", "2", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == [1, 0] and payload["matches"] is True

    def test_listing_bound(self):
        # (2,8) passes both caps with --force-cap 16, but its 924,687 class
        # words of 16 letters would print past MAX_LISTED: refused before
        # any word is built
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = ["gamma", "--m", "2", "--n", "8", "--force-cap", "16"]
        done = subprocess.run([sys.executable, "-m", "canonlab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr == ("error: the 924687 class words would print more than "
                               "10000000 letters; pass a smaller --m or --n\n")

    def test_counts_build_no_words(self, capsys, monkeypatch):
        # verify cor-5.1 reads counts, shift and matches only, so it runs
        # past the listing bound from the halves' counts alone, with no
        # extension of either half listed
        import canonlab.gamma as gamma_mod

        def refuse(*args):
            raise AssertionError("a class word or an extension was listed")

        for name in ("gamma_class_words", "rho_orders"):
            monkeypatch.setattr(gamma_mod, name, refuse)
        code, out, _ = invoke(capsys, "verify", "cor-5.1")
        assert code == 0 and "4/4 checks hold" in out
        code, out, _ = invoke(capsys, "verify", "cor-5.1", "--m", "2", "--n", "8",
                              "--force-cap", "16", "--format", "json")
        [report] = json.loads(out)
        assert code == 0 and report["holds"]
        assert "counts=(1, 261, 8182, 85315, 306768, 385280, 138880, 0)" in report["witness"]
        # 32 elements, counted on the halves' state graphs under the kernel's bounds
        code, out, _ = invoke(capsys, "verify", "cor-5.1", "--m", "3", "--n", "8")
        assert code == 0 and "[ok] gamma-interpretation m=3 n=8" in out


def test_csv_refused_where_not_implemented(capsys):
    for argv in (("gamma", "--m", "2", "--n", "3"), ("extensions", "--m", "2", "--n", "2"),
                 ("extensions", "--m", "2", "--n", "2", "--count-only")):
        err = usage_error(capsys, *argv, "--format", "csv")
        assert "argument --format: invalid choice: 'csv'" in err, argv


# every option each command or poly kind takes; 54 (command, option) pairs
ACCEPTED_OPTIONS = {
    "poly eulerian": "--n --format",
    "poly narayana": "--n --format",
    "poly canon": "--m --n --w --force-cap --format",
    "poly canon-product": "--m --n --w --format",
    "poly dissonant": "--m --n --w --remove --force-cap --format",
    "poly weak-descent": "--m --n --force-cap --format",
    "poly hstar": "--poset --repair --m --n --w --checked --remove --format",
    "verify": "--m --n --w --force-cap --format",
    "sweep": "--m --n --jobs --force-cap --format",
    "gamma": "--m --n --force-cap --format",
    "extensions": "--poset --repair --m --n --checked --remove --count-only --limit --format",
}


def _accepted_options(parser, prefix=""):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix, {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _accepted_options(child, f"{prefix} {name}".strip())


def test_each_command_takes_only_the_options_it_reads():
    accepted = dict(_accepted_options(build_parser()))
    assert accepted == {k: set(v.split()) for k, v in ACCEPTED_OPTIONS.items()}
    assert sum(map(len, accepted.values())) == 54


@pytest.mark.parametrize("argv", [
    # options a command does not read, once ignored
    "sweep gamma --m 2 --n 2 --w reverse --poset /nonexistent --remove 9:9",
    "poly weak-descent --m 2 --n 2 --w reverse",
    "gamma --m 2 --n 3 --w reverse --remove 9:9 --jobs 3",
    "poly canon --m 2 --n 2 --remove 9:9",
    "poly eulerian --n 3 --m 9",
    "verify thm-1.1 --max-size 6",
    "extensions --poset {file} --remove 5:1",
    # a poset file or the grid, not both, and --repair only on a file
    "poly hstar --poset {file} --m 2",
    "poly hstar --poset {file} --w reverse",
    "extensions --poset {file} --checked",
    "extensions --m 2 --n 2 --repair",
    "extensions --m 2",
    "poly hstar",
    # at least one worker, a cap of at least 1, and a limit of at least 0
    "sweep gamma --m 2 --n 2 --jobs 0",
    "sweep gamma --m 2 --n 2 --jobs -3",
    "sweep gamma --m 2 --n 2 --jobs x",
    "poly canon --m 2 --n 2 --force-cap 0",
    "extensions --m 2 --n 2 --limit -1",
])
def test_unread_options_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "grid.json"
    path.write_text(poset_to_json(product_with_chain(chain(2), 2)))
    argv = argv.format(file=path).split()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.count("error: ") == 1


def test_long_two_row_grids_exit_2(capsys):
    # the kernel's work bound refuses [2]x[1000] while its states are built;
    # verify cor-2.4 --n N checks the one grid n = N
    for argv in ("extensions --m 2 --n 1000 --count-only", "poly hstar --m 2 --n 1000",
                 "poly canon-product --m 2 --n 1000", "verify cor-2.4 --n 1000"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv.split())
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (2, ""), argv
        assert "transitions x elements at prefix length 143" in err, argv


# each names a poset of at least 10^5 elements, far past MAX_ELEMENTS
HUGE_POSETS = (
    "poly hstar --m 2 --n 100000",
    "poly canon-product --m 100000 --n 1",
    "extensions --m 2 --n 100000 --limit 1",
    "poly canon --m 100000000 --n 1",
    "verify remark-product --m 100000000",
    # each builds m row labels before any poset: refused before them
    "poly dissonant --m 100000000 --n 1",
    "verify thm-1.1 --m 100000000 --n 1",
    "verify all --m 100000000 --n 1",
)


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("argv", HUGE_POSETS)
def test_huge_posets_exit_2_before_they_are_built(argv):
    # the element bound refuses each before its covers are built, in a
    # process limited to 1 GiB of address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "canonlab", *argv.split()], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit_memory)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (2, ""), (argv, done.stderr)
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: "), argv
    assert elapsed < 1, argv


class TestExtensions:
    def test_count_only(self, capsys):
        code, out, _ = invoke(capsys, "extensions", "--m", "2", "--n", "4", "--count-only")
        assert code == 0 and out.strip() == "14"

    def test_count_beyond_64_bits(self, capsys):
        code, out, _ = invoke(capsys, "extensions", "--m", "8", "--n", "8", "--count-only")
        assert code == 0 and out.strip() == "22081374992701950398847674830857600"

    def test_wide_poset_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "antichain.json"
        path.write_text('{"elements": 40, "covers": []}')
        start = time.perf_counter()
        code, out, err = invoke(capsys, "extensions", "--poset", str(path), "--count-only")
        assert (code, out) == (2, "") and "too wide" in err
        assert time.perf_counter() - start < 10

    def test_stream_limit(self, capsys):
        code, out, _ = invoke(capsys, "extensions", "--m", "2", "--n", "2", "--limit", "1")
        assert code == 0 and out.splitlines() == ["0 1 2 3"]

    def test_listing_bound(self, capsys):
        code, out, _ = invoke(capsys, "extensions", "--m", "9", "--n", "8", "--limit", "1")
        assert code == 0 and out.splitlines() == [" ".join(map(str, range(72)))]
        start = time.perf_counter()
        code, out, err = invoke(capsys, "extensions", "--m", "9", "--n", "8")
        assert (code, out) == (2, "") and "--limit" in err
        assert time.perf_counter() - start < 10

    def test_long_chain(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(poset_to_json(chain(1100)))
        code, out, _ = invoke(capsys, "extensions", "--poset", str(path), "--limit", "1")
        assert code == 0 and out.splitlines() == [" ".join(map(str, range(1100)))]

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "extensions", "--m", "2", "--n", "2",
                              "--format", "json")
        assert code == 0
        assert json.loads(out) == [[0, 1, 2, 3], [0, 2, 1, 3]]


class TestPosetFiles:
    def test_round_trip(self, tmp_path, capsys):
        p = product_with_chain(chain(2), 2)
        lab = canon_labeling((1, 2), (1, 2))
        path = tmp_path / "grid.json"
        path.write_text(poset_to_json(p, lab))
        loaded, loaded_lab = load_poset(str(path))
        assert loaded == p and loaded_lab == lab
        code, out, _ = invoke(capsys, "poly", "hstar", "--poset", str(path))
        assert code == 0 and "coeffs [1, 1]" in out

    def test_fig3_subposet_loads(self, tmp_path):
        # two-row, four-column grid with one missing inter-copy cover: the
        # full grid has 10 covers, the subposet 9
        q = product_with_chain(chain(2), 4, 1 << 5)  # less (1, 3) < (1, 4)
        path = tmp_path / "sub.json"
        path.write_text(poset_to_json(q))
        loaded, _ = load_poset(str(path))
        assert len(loaded.covers) == 9

    def test_cycle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cyclic.json"
        path.write_text('{"elements": 2, "covers": [[0, 1], [1, 0]]}')
        code, _, err = invoke(capsys, "extensions", "--poset", str(path))
        assert code == 2 and "cyclic" in err

    def test_long_cycle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cyclic.json"
        covers = [[v, (v + 1) % 1500] for v in range(1500)]
        path.write_text(json.dumps({"elements": 1500, "covers": covers}))
        for repair in ((), ("--repair",)):
            code, out, err = invoke(capsys, "extensions", "--poset", str(path), *repair)
            assert (code, out) == (2, "") and "cyclic" in err
            assert "a cycle of 1500 elements" in err and len(err) < 120

    def test_repair(self, tmp_path, capsys):
        path = tmp_path / "redundant.json"
        path.write_text('{"elements": 3, "covers": [[0, 1], [1, 2], [0, 2]]}')
        code, _, err = invoke(capsys, "extensions", "--poset", str(path))
        assert code == 2 and "redundant" in err
        code, out, _ = invoke(capsys, "extensions", "--poset", str(path), "--repair")
        assert code == 0 and out.strip() == "0 1 2"

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "extensions", "--poset", "/nonexistent.json")
        assert code == 2 and "cannot read" in err

    def test_malformed_labels_exit_2(self, tmp_path, capsys):
        path = tmp_path / "labeled.json"
        for labels, message in (
            ('[1, "a"]', '"labels" must be integers'),
            ("[true, 2]", '"labels" must be integers'),
            ("[2, 2]", "labeling (2, 2) is not a bijection onto 1..2"),
            ("[1]", '"labels" must list one value per element'),
        ):
            path.write_text(f'{{"elements": 2, "covers": [], "labels": {labels}}}')
            code, out, err = invoke(capsys, "poly", "hstar", "--poset", str(path))
            assert (code, out) == (2, ""), labels
            assert err == f"error: {message}\n", labels


    def test_malformed_files_exit_2(self, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        for text, message in (
            ("[]", "poset JSON must be an object"),
            ('{"elements": 2}', 'poset JSON needs "elements" and "covers"'),
            ('{"elements": -1, "covers": []}', '"elements" must be a non-negative integer'),
            # JSON true and false are no integers
            ('{"elements": true, "covers": []}', '"elements" must be a non-negative integer'),
            ('{"elements": 2, "covers": [[0, "1"]]}',
             '"covers" must be a list of [a, b] integer pairs'),
            ('{"elements": 2, "covers": [[false, true]]}',
             '"covers" must be a list of [a, b] integer pairs'),
            # past the decoder's recursion limit
            ("[" * 100_000, "invalid JSON: nested too deeply"),
        ):
            path.write_text(text)
            code, out, err = invoke(capsys, "extensions", "--poset", str(path))
            assert (code, out) == (2, ""), text
            assert err == f"error: {message}\n", text
        # a file that is not UTF-8 is named in the error, as an unreadable one is
        path.write_bytes(b'{"elements": 1, "covers": []}\xff')
        code, out, err = invoke(capsys, "extensions", "--poset", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and "0xff" in err


class TestRunConfig:
    def test_run_directly(self, capsys):
        assert run(build_parser().parse_args(["poly", "narayana", "--n", "3"])) == 0
        assert "coeffs [1, 3, 1]" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_import_leaves_process_pool_out(self):
        # only --jobs above 1 needs the process pool, so importing the CLI
        # must not import it
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, canonlab.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "False"

    def test_start_up_generates_no_code(self):
        # records are plain classes: building the CLI must not load
        # dataclasses or the inspect module it pulls in.  A command loads
        # every layer the benchmark's tracer reads; only verify compiles the
        # statement checks, only sweep and verify the edge-subset sweep, and
        # only gamma and verify the Cor. 5.1 interpretation; no poset build
        # loads heapq, and only a csv output loads csv
        src = str(Path(__file__).resolve().parents[1] / "src")
        layers = ["canonlab." + name for name in ("cli", "canon", "polys", "linext", "poset",
                                                  "kernel")]
        lazy = {"canonlab.verify", "canonlab.sweep", "canonlab.gamma", "heapq", "csv"}
        code = ("import sys, contextlib, io, canonlab, canonlab.cli\n"
                "canonlab.cli.build_parser()\n"
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
                f"print([name for name in {layers!r} if name not in sys.modules])\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    canonlab.cli.main(sys.argv[1:])\n"
                f"print(sorted({lazy!r} & set(sys.modules)))\n")
        checks = "['canonlab.gamma', 'canonlab.sweep', 'canonlab.verify'"
        for argv, loaded in ((("poly", "canon", "--m", "2", "--n", "3"), "[]"),
                             (("extensions", "--m", "2", "--n", "3", "--count-only"), "[]"),
                             (("extensions", "--m", "2", "--n", "3"), "[]"),
                             (("sweep", "gamma", "--m", "2", "--n", "2", "--format", "json"),
                              "['canonlab.sweep']"),
                             (("gamma", "--m", "2", "--n", "2"), "['canonlab.gamma']"),
                             (("verify", "thm-1.1", "--m", "1", "--n", "1"), checks + "]"),
                             (("verify", "thm-1.1", "--format", "csv"), checks + ", 'csv']")):
            out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                 text=True, check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
            assert out.splitlines() == ["[]", "[]", loaded], argv


# sha256 of stdout for fixed commands: any change to output bytes, in any
# format, shows here
STDOUT_DIGESTS = [
    ("verify all", "86bd0bc70e69b4d3964726e37cd5734b57c768cd68732b7072eddc66bd17f63f"),
    ("verify all --format json",
     "29d5d3410f000a5f11c3ef85f843c5d8c3b07702e1b0e4c545aafe078a223a34"),
    ("verify all --format csv",
     "aacb64529b3b557b18bc6015d291a00ca08381aea9b8fac62eed71d84ecc4084"),
    ("sweep gamma --m 2 --n 3",
     "7d6eab920f212937013d0503a9ca5c203104578db20b39b078d941a0581d1783"),
    ("sweep gamma --m 2 --n 3 --format json",
     "61918fc7269d9bf7d9f4826c8e08eb3fd77fdf22276712cf8222a8868a0d7dfb"),
    ("sweep gamma --m 2 --n 3 --format csv",
     "c84aead73c5eb1b3d593a259c29db75d9dfb174fd378eff8207879da75761eb0"),
    ("sweep gamma --m 3 --n 3 --format json",
     "f11258de7f328a0bd9547e9ab64f07fd75f0d66f0fdbadb98060898bec7470c6"),
    ("sweep gamma --m 2 --n 5 --format csv",
     "ae757debff9f303387165cdf9068cc24d096ed77a0ac65e54f4ba7d116d4699f"),
    # equal to the rows of one dissonant_polynomial per mask, by any --jobs
    ("sweep gamma --m 2 --n 6 --format csv",
     "06ea540e447d4f71b554ca20b27d61261a7c40d3133d2f2b0cedef6b60e9ef18"),
    ("sweep gamma --m 2 --n 6 --format csv --jobs 2",
     "06ea540e447d4f71b554ca20b27d61261a7c40d3133d2f2b0cedef6b60e9ef18"),
    ("poly dissonant --m 2 --n 3 --remove 2:1,2:2 --format json",
     "e12ad5a7c9a10dac3817c1ecb1294f7ec507939cdebb75f86709423a7a4daf8e"),
    ("poly hstar --m 2 --n 3 --remove 2:1 --checked --format json",
     "8d9d6948614c5d418f4489d2652fe50075c552aa825e307b8f3e64bc65bf0f02"),
    ("extensions --m 2 --n 3 --remove 1:2",
     "8a43b58b1af4bf408783e1104bc7f6a3eca793c88e2c5d0c9b548e260d90c454"),
]


@pytest.mark.parametrize("argv, digest", STDOUT_DIGESTS, ids=[a for a, _ in STDOUT_DIGESTS])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = invoke(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
