import json
import time

from canonlab.cli import VERIFY_CHECKS, RunConfig, load_poset, main, run
from canonlab.poset import Labeling, canon_labeling, chain, poset_to_json, product_with_chain


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
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and message in err, argv

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CANONLAB_CAP", "3")
        code, _, err = invoke(capsys, "poly", "canon", "--m", "2", "--n", "2")
        assert code == 2 and "cap" in err
        monkeypatch.setenv("CANONLAB_CAP", "16")
        code, out, _ = invoke(capsys, "poly", "canon", "--m", "2", "--n", "2")
        assert code == 0


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

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "cor-2.4", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["holds"] for entry in payload)


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

    def test_force_cap_reaches_rows(self, capsys, monkeypatch):
        monkeypatch.setenv("CANONLAB_CAP", "3")
        code, out, _ = invoke(capsys, "sweep", "gamma", "--m", "2", "--n", "2",
                              "--force-cap", "4")
        assert code == 0 and "4 subposets swept" in out

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

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "extensions", "--m", "2", "--n", "2",
                              "--format", "json")
        assert code == 0
        assert json.loads(out) == [[0, 1, 2, 3], [0, 2, 1, 3]]


class TestPosetFiles:
    def test_round_trip(self, tmp_path, capsys):
        p = product_with_chain(chain(2), 2)
        lab = canon_labeling(Labeling.natural(2), Labeling.natural(2))
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


class TestRunConfig:
    def test_run_directly(self, capsys):
        cfg = RunConfig(command="poly", subcommand="narayana", n=3)
        assert run(cfg) == 0
        assert "coeffs [1, 3, 1]" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert run(RunConfig(command="nope")) == 2
