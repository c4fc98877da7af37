import json
import os
import subprocess
import sys
import time
from pathlib import Path

from canonlab.cli import VERIFY_CHECKS, RunConfig, load_poset, main, run
from canonlab.poset import canon_labeling, chain, poset_to_json, product_with_chain


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_hstar_checked(self, capsys):
        code, out, _ = invoke(capsys, "poly", "hstar", "--m", "3", "--n", "2", "--checked")
        assert code == 0 and "coeffs [1, 4, 4, 1]" in out

    def test_missing_arguments(self, capsys):
        code, _, err = invoke(capsys, "poly", "canon", "--m", "3")
        assert code == 2 and "required" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = invoke(capsys, "poly", "canon", "--m", "4", "--n", "4")
        assert code == 2 and "cap" in err

    def test_force_cap(self, capsys):
        code, out, _ = invoke(capsys, "poly", "canon", "--m", "2", "--n", "2",
                              "--force-cap", "30")
        assert code == 0

    def test_constructor_errors_exit_2(self, capsys):
        for argv, message in (
            (("poly", "canon", "--m", "0", "--n", "2"), "chain size"),
            (("poly", "eulerian", "--n", "0"), "n must be"),
            (("poly", "dissonant", "--m", "2", "--n", "3", "--remove", "5:1"), "out of range"),
            (("poly", "dissonant", "--m", "2", "--n", "3", "--remove", "zz"),
             "bad --remove entry 'zz'"),
            (("poly", "eulerian", "--n", "100000"), "exceeds the bound 1000"),
            (("poly", "narayana", "--n", "100000"), "exceeds the bound 1000"),
            (("poly", "canon-product", "--m", "1", "--n", "100000"), "exceeds the bound 1000"),
            (("verify", "thm-2.3", "--n", "30"), "the walk at n=13"),
            (("verify", "cor-2.4", "--n", "100000"), "exceeds the bound 1000"),
        ):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and message in err, argv

    def test_force_cap_leaves_hstar_alone(self, capsys):
        argv = ("poly", "hstar", "--m", "3", "--n", "3")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and "coeffs [1, " in out
        assert invoke(capsys, *argv, "--force-cap", "4") == (0, out, "")

    def test_hstar_past_64_elements(self, capsys):
        code, out, _ = invoke(capsys, "poly", "hstar", "--m", "9", "--n", "8")
        assert code == 0 and out.startswith("coeffs [1, ")

    def test_labeling_bound(self, capsys):
        # |P|*n = 10 is under the cap, but 10! labelings are above the bound
        start = time.perf_counter()
        code, out, err = invoke(capsys, "poly", "canon", "--m", "1", "--n", "10")
        assert (code, out) == (2, "") and "10! column labelings" in err
        assert time.perf_counter() - start < 1

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
            code, out, _ = invoke(capsys, "verify", name, "--max-size", "6")
            assert code == 0, (name, out)

    def test_all(self, capsys):
        code, out, _ = invoke(capsys, "verify", "all", "--max-size", "6")
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
            (("verify", "thm-1.1", "--max-size", "0"), "no checks ran for thm-1.1"),
            (("verify", "cor-5.1", "--max-size", "1"), "no checks ran for cor-5.1"),
            (("verify", "cor-2.4", "--n", "0"), "no checks ran for cor-2.4"),
            (("verify", "remark-product", "--m", "0"), "chain size must be >= 1"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and message in err and err.count("\n") == 1, argv

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "cor-2.4", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["holds"] for entry in payload)

    def test_one_kernel_call_per_poset_and_row_labeling(self, capsys, monkeypatch):
        import canonlab.kernel as kernel_mod

        calls = []
        real = kernel_mod.descent_histograms

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "descent_histograms", counted)
        # cor-3.4 at (2,3): one grid under its 6 labelings
        assert invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "3")[0] == 0
        assert len(calls) == 1
        # cor-4.1 at (2,2): 4 subposets under two row labelings each
        calls.clear()
        assert invoke(capsys, "verify", "cor-4.1", "--m", "2", "--n", "2")[0] == 0
        assert len(calls) == 8

    def test_shift_checks_under_the_cap(self, capsys):
        for name in ("cor-3.4", "cor-4.1"):
            code, out, err = invoke(capsys, "verify", name, "--m", "2", "--n", "7")
            assert (code, out) == (2, "") and "cap" in err, name
        code, out, _ = invoke(capsys, "verify", "cor-3.4", "--m", "2", "--n", "7",
                              "--force-cap", "14")
        assert code == 0 and "1/1 checks hold" in out

    def test_shift_law_compares_every_row(self, capsys, monkeypatch):
        import canonlab.cli as cli_mod

        real = cli_mod.canon_rows

        def perturbed(q, w, sigmas):
            rows = real(q, w, sigmas)
            rows[-1] = [rows[-1][0] + 1] + rows[-1][1:]
            return rows

        monkeypatch.setattr(cli_mod, "canon_rows", perturbed)
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
        for jobs in ("1", "4"):
            code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "3",
                                  "--format", "csv", "--jobs", jobs)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "2",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert payload["violations"] == []

    def test_subposet_bound(self, capsys):
        # (2,6) passes the cap, but 1024 subposets x 720 labelings do not
        start = time.perf_counter()
        code, out, err = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "6")
        assert (code, out) == (2, "") and "1024 subposets x 6! column labelings" in err
        assert time.perf_counter() - start < 1
        code, out, err = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "6",
                                "--force-cap", "20")
        assert (code, out) == (2, "") and "bound 362880" in err

    def test_force_cap_reaches_rows(self, capsys):
        argv = ("sweep", "gamma", "--m", "13", "--n", "1")
        code, out, _ = invoke(capsys, *argv, "--force-cap", "13")
        assert code == 0 and "1 subposets swept" in out
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and "cap 12" in err

    def test_violation_exits_nonzero_with_certificate(self, capsys, monkeypatch):
        # no gamma-negative subposet exists at desk scale, so exercise the
        # reporting path with a synthetic violation
        import canonlab.cli as cli_mod
        from canonlab.canon import AmphibianSpec, Certificate, SweepReport
        from canonlab.polys import IntPolynomial

        spec = AmphibianSpec(2, 2, frozenset({(1, 1)}))
        cert = Certificate(spec, IntPolynomial((1, -2, 1)), (1, -6),
                           "gamma-negative at index 1")
        fake = SweepReport(2, 2, (), (cert,))
        monkeypatch.setattr(cli_mod, "conjecture_sweep", lambda *a, **k: fake)
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "2")
        assert code == 1
        payload = json.loads(out.splitlines()[-1])
        assert payload["violation"] == "gamma-negative at index 1"
        assert payload["polynomial"] == {"coeffs": ["1", "-2", "1"]}


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


def test_csv_refused_where_not_implemented(capsys):
    for argv in (("gamma", "--m", "2", "--n", "3"), ("extensions", "--m", "2", "--n", "2"),
                 ("extensions", "--m", "2", "--n", "2", "--count-only")):
        code, out, err = invoke(capsys, *argv, "--format", "csv")
        assert (code, out) == (2, ""), argv
        assert err == f"error: {argv[0]} has no csv output; use --format json or plain\n"


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
        from canonlab.poset import remove_intercopy_covers

        q = remove_intercopy_covers(product_with_chain(chain(2), 4), 2, [(2, 3)])
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


class TestRunConfig:
    def test_run_directly(self, capsys):
        cfg = RunConfig(command="poly", subcommand="narayana", n=3)
        assert run(cfg) == 0
        assert "coeffs [1, 3, 1]" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert run(RunConfig(command="nope")) == 2

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
        # dataclasses or the inspect module it pulls in
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, canonlab, canonlab.cli; canonlab.cli.build_parser(); "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "[]"
