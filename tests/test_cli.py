import hashlib
import json
import os
import random
import shlex
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
from canonlab.cli import main, parse_args, run
from canonlab.errors import CanonlabError
from canonlab.poset import canon_labeling, chain, poset_to_json, product_with_chain
from canonlab.source import load_poset
from canonlab.verify import VERIFY_CHECKS
from contract import exit_contract_broken


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
        # empty entries are skipped, and a cover named twice is removed once
        code, out, _ = invoke(capsys, "poly", "dissonant", "--m", "2", "--n", "2",
                              "--remove", "1:1,,1:1")
        assert code == 0 and "coeffs [1, 4, 1]" in out
        assert invoke(capsys, "extensions", "--m", "1", "--n", "1", "--remove", ",") == (0, "0\n", "")

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
            (("poly", "canon", "--m", "-1", "--n", "2"), "chain size must be >= 1"),
            (("poly", "eulerian", "--n", "0"), "n must be"),
            (("poly", "dissonant", "--m", "2", "--n", "3", "--remove", "5:1"), "out of range"),
            (("poly", "dissonant", "--m", "2", "--n", "3", "--remove", "zz"),
             "bad --remove entry 'zz'"),
            (("sweep", "gamma", "--m", "2", "--n", "0"), "chain factor must have size >= 1"),
            (("sweep", "gamma", "--m", "0", "--n", "2"), "chain size must be >= 1"),
            (("poly", "eulerian", "--n", "100000"), "exceeds the bound 1000"),
            (("poly", "narayana", "--n", "100000"), "exceeds the bound 1000"),
            (("poly", "canon-product", "--m", "1", "--n", "100000"), "exceeds the bound 1000"),
            (("verify", "thm-2.3", "--n", "30"), "the walk at n=30"),
            (("verify", "cor-2.4", "--n", "100000"), "exceeds the bound 1000"),
            # each refused by a bound before any sum: unbounded, they run
            # for minutes to hours or exhaust memory
            (("verify", "cor-4.1", "--m", "2", "--n", "7"), "2^12 subposets exceed the bound 1024"),
            (("verify", "cor-4.1", "--m", "1", "--n", "12"), "2^11 subposets exceed the bound"),
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

    @pytest.mark.parametrize("argv", [
        "poly canon --m 1 --n 64", "poly canon --m 2 --n 70", "poly weak-descent --m 1 --n 70",
        "poly dissonant --m 1 --n 70", "gamma --m 1 --n 64", "verify thm-1.1 --m 1 --n 70",
        "verify thm-1.2 --m 3 --n 64", "verify prop-3.6 --m 1 --n 64",
        "verify cor-5.1 --m 2 --n 64", "verify cor-3.4 --m 1 --n 64",
        "verify prop-5.2 --m 1 --n 64",
    ])
    def test_class_counts_past_the_index_size(self, capsys, argv):
        # 2^63 and more descent classes, more than len() can return, are
        # refused by the work bound like any count past it, with no traceback;
        # Cor. 5.1 builds its halves first, and the layer bound refuses the
        # 64-antichain of tops before any class is counted
        code, out, err = invoke(capsys, *argv.split())
        assert (code, out) == (2, "") and "Traceback" not in err
        if argv.startswith(("gamma", "verify cor-5.1")):
            assert err == ("error: the order-ideal DP has more than 100000 states at prefix "
                           "length 3: the poset is too wide\n")
        else:
            assert err.startswith("error: ") and "lanes x transitions x elements" in err

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
        # no command bounds the n! labelings: the checks, like the sums, run
        # 2^9 descent classes of the 10! sigmas, in well under a second
        for argv in (("verify", "cor-3.4", "--m", "1", "--n", "10"),
                     ("verify", "prop-5.2", "--m", "1", "--n", "10")):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, "") and "1/1 checks hold" in out, argv
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

    def test_each_check_runs_once(self, capsys):
        # a check named twice, by an alias or inside "all", runs once, where
        # it is first named
        _, every, _ = invoke(capsys, "verify", "all", "--format", "json")
        for argv, names in (
            (("all", "all"), [r["name"] for r in json.loads(every)]),
            (("all", "thm-1.1"), [r["name"] for r in json.loads(every)]),
            (("thm-1.1", "thm-main", "--m", "2", "--n", "2"), ["product-formula m=2 n=2 w=natural"]),
            (("cor-3.4", "thm-main", "thm-1.1", "cor-3.4", "--m", "2", "--n", "2"),
             ["shift-law m=2 n=2", "product-formula m=2 n=2 w=natural"]),
        ):
            code, out, _ = invoke(capsys, "verify", *argv, "--format", "json")
            assert code == 0 and [r["name"] for r in json.loads(out)] == names, argv

    def test_w_reaches_only_the_product_formula(self, capsys):
        # thm-1.1 (alias thm-main) names its row labeling; every other
        # check ignores --w and prints what it prints without it
        for argv, line in ((("--m", "3", "--n", "3", "--w", "reverse"),
                            "[ok] product-formula m=3 n=3 w=reverse"),
                           (("--w", "u", "--m", "2", "--n", "2"),
                            "[ok] product-formula m=2 n=2 w=u")):
            code, out, _ = invoke(capsys, "verify", "thm-1.1", *argv)
            assert code == 0 and out.splitlines()[0] == line, argv
        reversed_rows = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3", "--w", "reverse")
        natural_rows = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")
        assert reversed_rows[0] == 0 and reversed_rows == natural_rows

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
            (("remark-product", "--n", "5"), [f"generalized-product m=2 |P'|=5 P'={name}"
                                              for name in ("antichain", "chain", "star")]),
            (("remark-product", "--m", "3"), [f"generalized-product m=3 |P'|=3 P'={name}"
                                              for name in ("antichain", "chain", "star")]),
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
        # cor-3.4 at (2,3): one grid under one labeling per descent class of
        # its 6 sigmas
        assert invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")[0] == 0
        assert calls == [4]
        # cor-4.1 at (2,2): one call per orbit of its 4 masks, the full mask
        # first, with a lane under each row labeling per descent class on the
        # kept gaps: none, then the one gap that the first and the last mask keep
        calls.clear()
        assert invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "2")[0] == 0
        assert calls == [2, 4, 4]
        # a sum runs one lane per descent class: 2^5 of the 720 sigmas at n = 6
        calls.clear()
        assert invoke(capsys, "poly", "canon", "--m", "2", "--n", "6")[0] == 0
        assert calls == [32]

    def test_subposet_checks_sum_once_per_orbit(self, capsys, monkeypatch):
        import canonlab.kernel as kernel_mod

        calls = []  # the lanes of each call
        real = kernel_mod.descent_histograms

        def counted(poset, labelings, *args, **kwargs):
            calls.append(len(labelings))
            return real(poset, labelings, *args, **kwargs)

        monkeypatch.setattr(kernel_mod, "descent_histograms", counted)
        # (2,5)'s 256 masks fall in 88 orbits, and its 31 fixed-row masks
        # in 16: a run walks each orbit once, in one call with a lane under
        # either row labeling per class, whichever subposet checks read it,
        # and cor-5.3 alone walks only the orbits of its fixed-row masks
        for statements, sums in ((("thm-4.3",), 88),
                                 (("cor-4.1", "lemma-4.2", "thm-4.3"), 88),
                                 (("cor-5.3", "lemma-4.2", "cor-4.1"), 88),
                                 (("cor-5.3",), 16)):
            calls.clear()
            assert invoke(capsys, "verify", *statements, "--m", "2", "--n", "5")[0] == 0
            assert len(calls) == sums and all(lanes % 2 == 0 for lanes in calls), statements

    def test_walks_do_not_outlive_their_run(self, capsys, monkeypatch):
        # a run reads only its own orbit walks and keeps them until it ends,
        # also when it exits 2: after a check walks (2,3) outside a run, a
        # run on a perturbed kernel fails cor-4.1 there, a clean run right
        # after holds, and no walk is left between the runs
        import canonlab.kernel as kernel_mod
        from canonlab.errors import SizeCapError

        real = kernel_mod.descent_histograms
        orbits = len(verify_mod.orbit_table(2, 3, verify_mod.subposet_masks(2, 3),
                                            lambda m, n, first: None)[1])
        calls = []

        def perturbed(poset, labelings):
            # the last lane of each orbit's call gains one extension, and a
            # call past the orbits of cor-4.1 is refused when ``refuse`` is set
            calls.append(1)
            if refuse and len(calls) > orbits:
                raise SizeCapError("refused after the walks")
            rows = list(real(poset, labelings))
            rows[-1] = [rows[-1][0] + 1] + rows[-1][1:]
            yield from rows

        for refuse, argv, code in ((False, ("cor-4.1",), 1),
                                   (True, ("cor-4.1", "cor-3.4"), 2)):
            assert verify_mod._check_row_shift(None, 2, 3)[0].holds
            calls.clear()
            monkeypatch.setattr(kernel_mod, "descent_histograms", perturbed)
            got, out, err = invoke(capsys, "verify", *argv, "--m", "2", "--n", "3")
            assert got == code and verify_mod._orbit_walk.cache_info().currsize == 0, argv
            if code == 1:
                assert "[FAIL] row-shift m=2 n=3  (mask=" in out
            else:
                assert out == "" and "refused after the walks" in err and len(calls) > orbits
            monkeypatch.setattr(kernel_mod, "descent_histograms", real)
            got, out, _ = invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "3")
            assert got == 0 and "[ok] row-shift m=2 n=3" in out, argv

    def test_refused_before_any_case_runs(self, capsys, monkeypatch):
        # every statement name is resolved, and the subposet bound checked on
        # every selected case of the four subposet checks, before the first
        # case runs: no kernel call, where cor-3.4 at (2,7) would make one of
        # 2^6 lanes
        import canonlab.kernel as kernel_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(kernel_mod, "descent_histograms", refuse)
        for argv, message in ((("cor-3.4", "nope"), "unknown statement 'nope'"),
                              (("all",), "2^12 subposets exceed the bound 1024"),
                              (("cor-3.4", "cor-4.1"), "2^12 subposets exceed the bound 1024")):
            code, out, err = invoke(capsys, "verify", *argv, "--m", "2", "--n", "7")
            assert (code, out) == (2, "") and message in err, argv

    def test_degree_check_builds_each_witness_once(self, capsys, monkeypatch):
        # lemma-4.2 reports every mask under both row labelings, and the
        # row-block witness is valid or not by the mask alone: one subposet
        # built per mask, 256 at (2,5), not one per report (the orbit walks
        # build their grids without ``AmphibianSpec.poset``)
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
        # the kernel's work bound counts the 2^(n-1) classes of sigma as
        # lanes, and the class walk's bound the classes of the second poset,
        # and each refuses before a class or a word is listed or a canon
        # labeling is built
        import canonlab.canon as canon_mod

        built, classes, extensions = [], [], []
        real_labeling, real_classes = canon_mod.canon_labeling, canon_mod._descent_classes
        real_extensions = verify_mod.enumerate_linear_extensions

        def counted(w, sigma):
            built.append(1)
            return real_labeling(w, sigma)

        def counted_classes(*args):
            for pair in real_classes(*args):
                classes.append(pair)
                yield pair

        def counted_extensions(p):
            for ext in real_extensions(p):
                extensions.append(ext)
                yield ext

        # the sums label their lanes in canon, the checks in verify
        monkeypatch.setattr(canon_mod, "canon_labeling", counted)
        monkeypatch.setattr(verify_mod, "canon_labeling", counted)
        # sigma's classes are walked in canon, a second poset's in verify
        monkeypatch.setattr(canon_mod, "_descent_classes", counted_classes)
        monkeypatch.setattr(verify_mod, "_descent_classes", counted_classes)
        monkeypatch.setattr(verify_mod, "enumerate_linear_extensions", counted_extensions)
        for argv, bound in ((("cor-3.4", "--m", "9", "--n", "8"), "lanes"),
                            (("cor-3.4", "--m", "1", "--n", "18"), "lanes"),
                            (("cor-3.4", "--m", "2", "--n", "14"), "lanes"),
                            (("prop-5.2", "--m", "2", "--n", "14"), "lanes"),
                            (("prop-5.2", "--m", "1", "--n", "64"), "lanes"),
                            (("remark-product", "--m", "1", "--n", "12"), "classes"),
                            (("remark-product", "--m", "3", "--n", "11"), "lanes")):
            code, out, err = invoke(capsys, "verify", *argv)
            assert (code, out) == (2, "") and f"{bound} x transitions x elements" in err, argv
        assert built == classes == extensions == []
        assert invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")[0] == 0
        # the kernel and the check read the 4 classes of the 6 sigmas from
        # one walk
        assert (len(built), len(classes)) == (4, 4)
        # cor-4.1 walks each orbit's classes once, for two lanes a class
        built.clear()
        classes.clear()
        firsts = verify_mod.orbit_table(2, 3, verify_mod.subposet_masks(2, 3),
                                        lambda m, n, first: None)[1]
        assert invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "3")[0] == 0
        walked = sum(len(canon_mod._sigma_classes(2, 3, mask)) for mask in firsts)
        assert (len(built), len(classes)) == (2 * walked, walked) and len(firsts) < walked
        classes.clear()
        # the 9! words of antichain(9) run as 2^8 classes, chain(9)'s one
        # word as one, and the star's 8! as 2^7, as its first gap rises in
        # every word: no word is listed
        code, out, _ = invoke(capsys, "verify", "remark-product", "--n", "9")
        assert code == 0 and "3/3 checks hold" in out
        assert len(classes) == 256 + 1 + 128 and extensions == []

    def test_shift_checks_under_the_cap(self, capsys):
        # at (2,7), cor-3.4's 2^6 class lanes run with no flag, while cor-4.1's
        # 2^12 subposets pass the subposet bound
        code, out, _ = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "7")
        assert code == 0 and "1/1 checks hold" in out
        code, out, err = invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "7")
        assert (code, out) == (2, "") and "2^12 subposets exceed the bound 1024" in err

    def test_shift_law_compares_every_row(self, capsys, monkeypatch):
        import canonlab.kernel as kernel_mod

        real = kernel_mod.descent_histograms

        def perturbed(poset, labelings):
            # the last row gains one extension as it passes through the stream
            rows = real(poset, labelings)
            for _ in range(len(labelings) - 1):
                yield next(rows)
            last = next(rows)
            yield [last[0] + 1] + last[1:]

        monkeypatch.setattr(kernel_mod, "descent_histograms", perturbed)
        code, out, _ = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")
        assert code == 1
        assert "[FAIL] shift-law m=2 n=3  (failed at sigma=(3, 2, 1))" in out

    def test_shift_law_names_the_failing_class(self, capsys, monkeypatch):
        # one lane per descent class: when one class's row gains an
        # extension, the witness names that class's sigma
        import canonlab.kernel as kernel_mod
        from canonlab.canon import _sigma_classes

        real = kernel_mod.descent_histograms
        sigmas = [sigma for sigma, _ in _sigma_classes(2, 4, 0)]
        assert len(sigmas) == 8 and sigmas[0] == (1, 2, 3, 4)
        for bad in range(1, 8):
            def perturbed(poset, labelings):
                for lane, row in enumerate(real(poset, labelings)):
                    yield [row[0] + 1] + row[1:] if lane == bad else row

            monkeypatch.setattr(kernel_mod, "descent_histograms", perturbed)
            code, out, _ = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "4")
            assert code == 1
            assert f"[FAIL] shift-law m=2 n=4  (failed at sigma={sigmas[bad]})" in out, bad


    def test_row_shift_compares_every_lane_pair(self, capsys, monkeypatch):
        import canonlab.kernel as kernel_mod

        real = kernel_mod.descent_histograms
        grid = product_with_chain(chain(2), 3)

        def perturbed(poset, labelings):
            # on the full grid, mask 0, the last lane (the natural row of the
            # last class sigma) gains one extension as it passes
            rows = list(real(poset, labelings))
            if poset == grid:
                rows[-1] = [rows[-1][0] + 1] + rows[-1][1:]
            yield from rows

        monkeypatch.setattr(kernel_mod, "descent_histograms", perturbed)
        code, out, _ = invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "3")
        assert code == 1
        assert "[FAIL] row-shift m=2 n=3  (mask=0 sigma=(3, 2, 1))" in out


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
        # no subposet check lists sigma, so only the 2^10 subposet bound
        # applies: (2,6)'s 1024 subposets run, and (1,9)'s 256 under cor-4.1,
        # while (2,7)'s 4096 are refused at once
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "6")
        assert code == 0 and "1024 subposets swept, 0 gamma-negative" in out
        code, out, _ = invoke(capsys, "verify", "lemma-4.2", "--m", "2", "--n", "6")
        assert code == 0 and "2048/2048 checks hold" in out
        code, out, _ = invoke(capsys, "verify", "cor-4.1", "--m", "1", "--n", "9")
        assert code == 0 and "1/1 checks hold" in out
        for argv, message in (
            (("sweep", "gamma", "--m", "2", "--n", "7"), "2^12 subposets exceed the bound 1024"),
            (("verify", "cor-4.1", "--m", "2", "--n", "7"), "2^12 subposets exceed the bound 1024"),
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

    def test_halves_built_once(self, capsys, monkeypatch):
        # the counts and the class words read one build of each half: three
        # state graphs at (2,6), the canon sum's grid and the two halves;
        # a second run in the same process builds its own three
        import canonlab.kernel as kernel_mod

        built = []
        real = kernel_mod._transitions
        monkeypatch.setattr(kernel_mod, "_transitions", lambda *a: built.append(a[0]) or real(*a))
        first = invoke(capsys, "gamma", "--m", "2", "--n", "6")
        assert first[0] == 0 and len(built) == 3
        built.clear()
        assert invoke(capsys, "gamma", "--m", "2", "--n", "6") == first and len(built) == 3

    def test_refused_half_costs_no_sum(self, capsys, monkeypatch):
        # both halves are built before the canon sum: the tops half of
        # (1,16), a 16-antichain, is refused on the layer bound with no sum
        import canonlab.gamma as gamma_mod

        def refuse(*args):
            raise AssertionError("the canon polynomial was summed")

        monkeypatch.setattr(gamma_mod, "canon_polynomial_bruteforce", refuse)
        for argv in (("gamma",), ("verify", "cor-5.1")):
            code, out, err = invoke(capsys, *argv, "--m", "1", "--n", "16")
            assert (code, out) == (2, ""), argv
            assert err == ("error: the order-ideal DP has more than 100000 states at prefix "
                           "length 8: the poset is too wide\n"), argv

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
# each route with what it requires, then each option with a value and what
# the config reads for it; the base --m 1 shows that the last --m given wins
ROUTE_BASES = {
    "poly eulerian": "poly eulerian --n 1",
    "poly narayana": "poly narayana --n 1",
    "poly canon": "poly canon --n 1 --m 1",
    "poly canon-product": "poly canon-product --n 1 --m 1",
    "poly dissonant": "poly dissonant --n 1 --m 1",
    "poly weak-descent": "poly weak-descent --n 1 --m 1",
    "poly hstar": "poly hstar",
    "verify": "verify thm-1.1",
    "sweep": "sweep gamma --n 1 --m 1",
    "gamma": "gamma --n 1 --m 1",
    "extensions": "extensions",
}
OPTION_VALUES = {
    "--m": ("2", 2), "--n": ("3", 3), "--w": ("reverse", "reverse"), "--remove": ("1:1", "1:1"),
    "--poset": ("grid.json", "grid.json"), "--repair": (None, True), "--checked": (None, True),
    "--force-cap": ("4", 4), "--jobs": ("2", 2), "--count-only": (None, True),
    "--limit": ("5", 5), "--format": ("json", "json"),
}


def parse_or_refuse(capsys, argv):
    """The config of an argv, or None with the stderr of a usage error."""
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        assert (exc.code, captured.out) == (2, ""), argv
        return None, captured.err
    return cfg, ""


def test_each_command_takes_only_the_options_it_reads(capsys):
    # each of the 54 taken options parses to its value; any other option is
    # a usage error with one error line
    assert sum(len(v.split()) for v in ACCEPTED_OPTIONS.values()) == 54
    for route, accepted in ACCEPTED_OPTIONS.items():
        for option, (text, value) in OPTION_VALUES.items():
            argv = ROUTE_BASES[route].split() + [option] + ([text] if text else [])
            cfg, err = parse_or_refuse(capsys, argv)
            if option in accepted.split():
                assert cfg is not None, (argv, err)
                assert getattr(cfg, option[2:].replace("-", "_")) == value, argv
            else:
                assert cfg is None, argv
                assert err.count("error:") == 1 and "unrecognized arguments" in err, argv


@pytest.mark.parametrize("argv, attr, value", [
    ("poly canon --m=2 --n 3", "m", 2),
    ("poly canon --m 2 --n=3", "n", 3),
    ("poly canon --m 2 --n 3 --form json", "format", "json"),
    ("poly canon --m 2 --n 3 --form=csv", "format", "csv"),
    ("poly canon --m 2 --n 3 --m 4", "m", 4),
    ("poly canon --m 2 --n 3 --format json --format plain", "format", "plain"),
    ("poly canon --m -1 --n 3", "m", -1),
    ("extensions --m 2 --n 2 --count", "count_only", True),
    ("verify --m 2 --n 2 thm-1.1", "statements", ["thm-1.1"]),
    ("verify thm-1.1 cor-3.4 --m 2", "statements", ["thm-1.1", "cor-3.4"]),
    ("verify --m 2 -- thm-1.1 cor-3.4", "statements", ["thm-1.1", "cor-3.4"]),
    ("sweep --m 2 gamma --n 2", "kind", "gamma"),
    ("sweep --m 2 --n 2 --jobs=3 gamma", "jobs", 3),
    ("poly eulerian --n 3", "format", "plain"),
])
def test_argparse_syntax_parses(capsys, argv, attr, value):
    cfg, err = parse_or_refuse(capsys, argv.split())
    assert cfg is not None, (argv, err)
    assert getattr(cfg, attr) == value, argv


@pytest.mark.parametrize("argv, message", [
    ("poly canon", "the following arguments are required: --n, --m"),
    ("sweep", "the following arguments are required: --n, --m, kind"),
    ("verify --m 2", "the following arguments are required: statements"),
    ("poly", "the following arguments are required: kind"),
    ("", "the following arguments are required: command"),
    ("poly canon-product --m 2 --n 2 --force-cap 4", "unrecognized arguments: --force-cap 4"),
    ("verify thm-1.1 --m 2 cor-3.4", "unrecognized arguments: cor-3.4"),
    ("poly canon --m 2 --n 2 --w up", "argument --w: invalid choice: 'up'"),
    ("poly canon --m x --n 2", "argument --m: invalid int value: 'x'"),
    ("poly canon --m= --n 2", "argument --m: invalid int value: ''"),
    ("sweep gamma --m 2 --n 2 --jobs 0", "argument --jobs: must be at least 1, not 0"),
    ("extensions --m 2 --n 2 --limit -1", "argument --limit: must be at least 0, not -1"),
    ("poly canon --m --n 2", "argument --m: expected one argument"),
    ("poly canon --n 2 --m", "argument --m: expected one argument"),
    ("extensions --m 2 --n 2 --c", "ambiguous option: --c could match --checked, --count-only"),
    ("extensions --m 2 --n 2 --count-only=yes",
     "argument --count-only: ignored explicit argument 'yes'"),
    ("poly nope", "argument kind: invalid choice: 'nope'"),
    ("sweep nope --m 2 --n 2", "argument kind: invalid choice: 'nope'"),
])
def test_usage_errors_print_one_error_line(capsys, argv, message):
    err = usage_error(capsys, *argv.split())
    assert err.count("error:") == 1 and message in err, (argv, err)


@pytest.mark.parametrize("route", ["", "poly", *ACCEPTED_OPTIONS])
def test_help_lists_each_option(capsys, route):
    # -h and --help print a usage naming every option the route takes, exit 0
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(route.split() + [flag])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith("usage: canonlab"), route
        for option in ACCEPTED_OPTIONS.get(route, "").split():
            assert option in out, (route, option)


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
    # the sweep builds its row labels past the subposet bound, which admits
    # any m at n = 1; a --remove mask is as long as the grid's m(n-1) covers:
    # each refused before it is built, by the grid's m or its m * n
    "sweep gamma --m 1000000000 --n 1",
    "poly dissonant --m 1000000000 --n 1000000000 --remove 1000000000:999999999",
    "poly hstar --m 100000 --n 100000 --remove 100000:99999",
    "extensions --m 5000000 --n 5000000 --remove 5000000:4999999 --count-only",
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
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: a poset of "), argv
    assert elapsed < 1, argv


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_a_poset_file_past_the_memory_exits_2(tmp_path):
    # K(700, 700): its 490,000 covers, 5 MB of JSON, parse within a 150 MiB
    # address space, but its poset does not fit there.  The MemoryError ends
    # as a size cap does, in one error line and exit 2, not in a traceback
    k = 700
    path = tmp_path / "k700.json"
    covers = ",".join(f"[{a},{k + b}]" for a in range(k) for b in range(k))
    path.write_text(f'{{"elements": {2 * k}, "covers": [{covers}]}}')

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (150 << 20, 150 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "canonlab", "extensions", "--poset", str(path),
                           "--count-only"], env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=limit_memory)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


# what a random command line is drawn from: a command (or none, or a bad
# one); then, mostly, what its route requires and options it takes, each
# with a usual value or, now and then, a bad or huge one; and stray words
ARGV_HEADS = ((), ("nope",), ("poly",), *(tuple(route.split()) for route in ACCEPTED_OPTIONS))
ARGV_VALUES = {  # option: (usual values, odd values)
    "--m": (("1", "2", "3"), ("0", "-1", "x", "2.5", "", "6325", "1000000000")),
    "--w": (("natural", "reverse", "u"), ("id", "up")),
    "--remove": (("1:1", "1:2,2:1", "2:2"), ("9:9", "0:1", "1:x", "1000000000:999999999")),
    "--poset": (("valid", "labeled"), ("cyclic", "missing")),
    "--force-cap": (("1",), ("0", "x")),
    "--jobs": (("1", "2"), ("0", "x", "1000000000")),
    "--limit": (("0", "3"), ("-1", "x", "1000000000")),
    "--format": (("json", "csv", "plain"), ("xml",)),
    "statements": (("all", "thm-1.1", "cor-4.1", "cor-5.1"), ("nope",)),
    "kind": (("gamma",), ("nope",)),
}
ARGV_VALUES["--n"] = ARGV_VALUES["--m"]
ARGV_WORDS = ("gamma", "canon", "nope", "--", "-h", "-hh", "--bogus", "-x")


def argv_files(directory: Path) -> dict:
    """The poset files a random ``--poset`` names, written to ``directory``:
    the [2]x[3] grid, a cycle, a labeled chain and a file that is not there."""
    files = {name: directory / f"{name}.json" for name in sum(ARGV_VALUES["--poset"], ())}
    files["valid"].write_text(poset_to_json(product_with_chain(chain(2), 3)))
    files["cyclic"].write_text('{"elements": 2, "covers": [[0, 1], [1, 0]]}')
    files["labeled"].write_text(poset_to_json(chain(3), (3, 1, 2)))
    return {name: str(path) for name, path in files.items()}


def random_argvs(seed: int, count: int, files: dict) -> list:
    """``count`` command lines drawn by ``random.Random(seed)``: a head from
    ``ARGV_HEADS``, mostly with what its route requires, then up to four
    options (now and then without a value, or as ``--option=value``),
    flags and words; ``--poset`` names a file of ``files``."""
    rng = random.Random(seed)
    every = [name for name in cli_mod.OPTIONS if name.startswith("--")]

    def value(name):
        usual, odd = ARGV_VALUES[name]
        text = rng.choice(usual if rng.random() < 0.8 else odd)
        return files.get(text, text) if name == "--poset" else text

    argvs = []
    for _ in range(count):
        head = rng.choice(ARGV_HEADS)
        route = cli_mod.ROUTES
        for word in head:
            route = route.get(word, {}) if isinstance(route, dict) else {}
        argv, taken = list(head), every
        if isinstance(route, cli_mod.Route):
            taken = list(cli_mod.route_options(route))
            for name in (*route.required.split(), route.positional):
                if name and rng.random() < 0.8:
                    argv += [name, value(name)] if name.startswith("--") else [value(name)]
        for _ in range(rng.randint(0, 4)):
            pick = rng.random()
            name = rng.choice(taken if pick < 0.7 else every)
            if pick > 0.9:
                argv.append(rng.choice(ARGV_WORDS))
            elif name not in ARGV_VALUES or pick < 0.05:  # a flag, or no value
                argv.append(name)
            elif rng.random() < 0.2:
                argv.append(f"{name}={value(name)}")
            else:
                argv += [name, value(name)]
        argvs.append(argv)
    return argvs


def test_random_argvs_keep_the_exit_contract(capsys, tmp_path):
    # in-process, so 200 command lines take a few seconds; CI runs a sample
    # of the same draw through fresh interpreters
    files = argv_files(tmp_path)
    start = time.perf_counter()
    for argv in random_argvs(2024, 200, files):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error, or a help
            code = exc.code
        except Exception as exc:  # a traceback in a real run
            pytest.fail(f"{shlex.join(argv)} raised {exc!r}")
        broken = exit_contract_broken(code, capsys.readouterr().err)
        assert broken is None, (shlex.join(argv), broken)
    assert time.perf_counter() - start < 5


def test_contract_runner_fails_a_broken_expectation():
    # the runner CI runs each command through: exit 0 when every check
    # holds, exit 1 when any fails
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    for options, code in ((["--exit", "2", "--stderr", "too large"], 0), (["--exit", "0"], 1),
                          (["--exit", "2", "--stderr", "too wide"], 1),
                          (["--exit", "2", "--mb", "1"], 1)):
        done = subprocess.run([sys.executable, str(tests / "contract.py"), *options,
                               "--seconds", "60", "--", "poly", "canon", "--m", "9", "--n", "8"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (options, done.stdout, done.stderr)


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
            # a truncated file, and one with data after its object
            ('{"elements": 1', "invalid JSON: Expecting ',' delimiter: line 1 column 15 (char 14)"),
            ('{"elements": 2, "covers": []}{}', "invalid JSON: Extra data: line 1 column 30 (char 29)"),
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
        assert run(parse_args(["poly", "narayana", "--n", "3"])) == 0
        assert "coeffs [1, 3, 1]" in capsys.readouterr().out

    def test_canonlab_error_exits_1(self, capsys, monkeypatch):
        # no input reaches this branch; a route that raises one must still
        # end in one error line and exit 1
        def fail(cfg):
            raise CanonlabError("the identity fails")

        monkeypatch.setitem(cli_mod.ROUTES, "gamma", cli_mod.ROUTES["gamma"]._replace(run=fail))
        assert invoke(capsys, "gamma", "--m", "2", "--n", "3") == (1, "", "error: the identity fails\n")

    def test_unset_options_read_none(self):
        # every option of the table is an attribute; those the route does
        # not take or that are not given read None
        cfg = parse_args(["poly", "eulerian", "--n", "3"])
        assert (cfg.n, cfg.format, cfg.jobs) == (3, "plain", None)
        assert [cfg.m, cfg.w, cfg.poset, cfg.repair, cfg.checked, cfg.count_only,
                cfg.statements] == [None] * 7

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
        # every layer the benchmark's tracer reads, and the set-up probe no
        # lazy module; only verify compiles the statement checks, only sweep
        # and verify the edge-subset sweep, only gamma and verify the Cor. 5.1
        # interpretation, only the routes that compare against a closed form
        # (and sweep, gamma and verify) the closed forms, and only the routes
        # that read a poset file or a grid less its covers the poset source;
        # no poset build loads heapq, only a csv output loads the csv writer,
        # and only a usage error or a help the usage text.  The command line
        # is parsed from the option table, so no command, usage error or help
        # loads argparse, or the gettext and locale modules that argparse's
        # messages pull in.  No module loads typing, only a JSON output or
        # file loads json (which loads re), and only an unknown dash
        # argument re; the lazy layers load without importlib.  The child
        # runs without site (-S), so a host whose site imports typing or re
        # cannot hide a module that does
        src = str(Path(__file__).resolve().parents[1] / "src")
        layers = ["canonlab." + name for name in ("cli", "canon", "polys", "linext", "poset",
                                                  "kernel")]
        lazy = {"canonlab.verify", "canonlab.sweep", "canonlab.gamma", "canonlab.usage",
                "canonlab.forms", "canonlab.source", "heapq", "_csv"}
        stdlib = {"typing", "json", "re", "importlib"}
        code = ("import sys, contextlib, io, canonlab, canonlab.cli\n"
                "canonlab.cli.build_parser()\n"
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
                f"print([name for name in {layers!r} if name not in sys.modules])\n"
                f"print(sorted({stdlib!r} & set(sys.modules)))\n"
                f"print(sorted({lazy!r} & set(sys.modules)))\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "    try:\n"
                "        canonlab.cli.main(sys.argv[1:])\n"
                "    except SystemExit:\n"
                "        pass\n"
                f"print(sorted({lazy!r} & set(sys.modules)))\n"
                "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
                f"print(sorted({stdlib!r} & set(sys.modules)))\n")
        checks = "['canonlab.forms', 'canonlab.gamma', 'canonlab.sweep', 'canonlab.verify'"
        json_re = "['json', 're']"
        source = "['canonlab.source']"
        for argv, loaded, imported in (
                (("poly", "canon", "--m", "2", "--n", "3"), "[]", "[]"),
                (("poly", "hstar", "--m", "2", "--n", "2", "--format", "json"), source, json_re),
                (("poly", "hstar", "--m", "2", "--n", "2", "--checked"),
                 "['canonlab.forms', 'canonlab.source']", "[]"),
                (("poly", "dissonant", "--m", "2", "--n", "2", "--remove", "1:1"), source, "[]"),
                (("poly", "eulerian", "--n", "3"), "['canonlab.forms']", "[]"),
                (("extensions", "--m", "2", "--n", "3", "--count-only"), source, "[]"),
                (("extensions", "--m", "2", "--n", "3"), source, "[]"),
                (("sweep", "gamma", "--m", "2", "--n", "2", "--format", "json"),
                 "['canonlab.forms', 'canonlab.sweep']", json_re),
                (("sweep", "gamma", "--m", "2", "--n", "2", "--format", "csv"),
                 "['_csv', 'canonlab.forms', 'canonlab.sweep']", "[]"),
                (("gamma", "--m", "2", "--n", "2"), "['canonlab.forms', 'canonlab.gamma']", "[]"),
                (("verify", "thm-1.1", "--m", "1", "--n", "1"), checks + "]", "[]"),
                (("verify", "thm-1.1", "--format", "csv"), "['_csv', " + checks[1:] + "]", "[]"),
                (("poly", "canon", "--m", "2"), "['canonlab.usage']", "[]"),
                (("sweep", "--help"), "['canonlab.usage']", "[]"),
                (("poly", "canon", "--m", "-2", "--n", "3"), "[]", "['re']")):
            out = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                                 text=True, check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
            assert out.splitlines() == ["[]", "[]", "[]", "[]", loaded, "[]", imported], argv

    def test_package_exports_the_closed_forms_on_first_use(self):
        # each name moved out of the start-up modules imports from its new
        # module, and each one the package exported still imports from it,
        # through a module __getattr__ that loads canonlab.forms only then;
        # an unknown name raises AttributeError
        import canonlab
        from canonlab import forms, source

        moved = {
            forms: ("is_palindromic", "gamma_expansion", "is_unimodal", "MAX_NAMED_N",
                    "check_named_n", "eulerian", "narayana", "_product_form",
                    "canon_polynomial_product", "weak_descent_polynomial", "checked_product",
                    "checked_labeling", "_chain_sums", "rho_parities", "chain_descents"),
            source: ("_parse_removed", "load_poset", "_resolve_poset", "run"),
        }
        exported = ("is_palindromic", "gamma_expansion", "is_unimodal", "eulerian",
                    "narayana", "canon_polynomial_product", "weak_descent_polynomial",
                    "checked_product", "checked_labeling", "chain_descents")
        for module, names in moved.items():
            assert [name for name in names if not hasattr(module, name)] == []
        assert all(getattr(canonlab, name) is getattr(forms, name) for name in exported)
        star: dict = {}
        exec("from canonlab import *", star)
        assert set(exported) <= set(star)
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            canonlab.no_such_name
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, canonlab\n"
                "print('canonlab.forms' in sys.modules)\n"
                "from canonlab import eulerian\n"
                "print('canonlab.forms' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.splitlines() == ["False", "True"]


# sha256 of stdout for fixed commands: any change to output bytes, in any
# format, shows here
STDOUT_DIGESTS = [
    ("verify all", "32aade136cd7df37d79e77501aeea14b4c3860b5dd1ab31e5501e760c9abb245"),
    ("verify all --format json",
     "f9cf3e8cf31ee03fe7711914183b33b24abccb6ef9f04a7a3d4b6a8e66c68d55"),
    ("verify all --format csv",
     "ce188d25c44c265456e31216a2509d90455c2c354ccb75a8b1136a6658c3d773"),
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


# the raw bytes of a csv on a real stdout: the csv module ends the rows of
# sweep and verify in \r\n (its default), and poly prints its rows with \n
CSV_BYTES = [
    ("sweep gamma --m 1 --n 2 --format csv",
     b"removed_edge_mask,degree,palindromic,gamma,gamma_positive,unimodal,mode\r\n"
     b"0,1,true,1,true,true,canon\r\n1,1,true,2,true,true,general\r\n"),
    ("verify cor-2.4 --n 2 --format csv", b"name,holds,witness\r\nnarayana-hstar n=2,true,\r\n"),
    ("poly eulerian --n 3 --format csv", b"exponent,coefficient\n0,1\n1,4\n2,1\n"),
]


@pytest.mark.parametrize("argv, expected", CSV_BYTES, ids=[a for a, _ in CSV_BYTES])
def test_csv_line_endings_are_pinned(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "canonlab", *argv.split()], env=env,
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, b"")
