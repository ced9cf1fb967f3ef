import json
import textwrap

import pytest

from backaction import cli, scenarios
from backaction.cli import main, render_json, render_text, run_scenario


def _write(tmp_path, body, name="case.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


FAST_VERDICT = """\
    name: fast-verdict
    model: noiseless
    checks: [verdict, robertson]
    object: {sigma_x: 1.0, sigma_p: 0.5}
    probe: {sigma_x: 0.5, sigma_p: 1.0}
    """

# The von Neumann pointer smears the readout, so its sampled outcomes
# cannot match the bare object distribution: an honestly failing check.
FAILING_BORN = """\
    name: smeared-readout
    model: von_neumann
    checks: [born]
    born: {samples: 4000}
    object: {sigma_x: 1.0, sigma_p: 0.5}
    probe: {sigma_x: 1.0, sigma_p: 0.5}
    """


class TestListCommand:
    def test_lists_bundled_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == scenarios.bundled_names()


class TestRunCommand:
    def test_bundled_scenario_passes(self, capsys):
        assert main(["run", "noiseless-violation"]) == 0
        out = capsys.readouterr().out
        assert "overall           PASS" in out

    def test_file_target(self, tmp_path, capsys):
        path = _write(tmp_path, FAST_VERDICT)
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "fast-verdict" in out

    def test_failing_check_exits_one(self, tmp_path, capsys):
        path = _write(tmp_path, FAILING_BORN)
        assert main(["run", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_unknown_name_exits_two(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_invalid_file_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "name: bad\nmodel: nope\nchecks: [verdict]\n")
        assert main(["run", path]) == 2
        assert "model" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, capsys):
        assert main(["run", "noiseless-violation", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--seed" in captured.err and ">= 0" in captured.err

    def test_bad_tol_exits_two(self, capsys):
        assert main(["run", "noiseless-violation", "--tol", "nope=1"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_tol_value_validated(self, capsys):
        assert main(["run", "noiseless-violation", "--tol", "exact=zero"]) == 2
        capsys.readouterr()
        assert main(["run", "noiseless-violation", "--tol", "exact=-1"]) == 2
        capsys.readouterr()

    def test_tightened_tolerance_can_fail_a_passing_check(self, tmp_path,
                                                          capsys):
        # The noiseless verdict reports epsilon at rounding scale; a
        # sub-rounding tolerance flips it, which is exactly what --tol is
        # for: probing how much margin a pass has.
        path = _write(tmp_path, FAST_VERDICT)
        assert main(["run", path, "--tol", "exact=1e-300"]) == 1
        capsys.readouterr()

    def test_json_format_parses(self, tmp_path, capsys):
        path = _write(tmp_path, FAST_VERDICT)
        assert main(["run", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert set(report["checks"]) == {"verdict", "robertson"}
        assert report["checks"]["verdict"]["values"]["epsilon"] <= 1e-12

    def test_multiple_targets_worst_exit_wins(self, tmp_path, capsys):
        good = _write(tmp_path, FAST_VERDICT, name="good.yaml")
        bad = _write(tmp_path, FAILING_BORN, name="bad.yaml")
        assert main(["run", good, bad]) == 1
        out = capsys.readouterr().out
        assert "fast-verdict" in out and "smeared-readout" in out


class TestReports:
    def test_out_dir_writes_reports_and_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main([
            "run", "sql-refutation-sweep", "--out-dir", str(out_dir),
            "--format", "both"]) == 0
        capsys.readouterr()
        json_path = out_dir / "sql-refutation-sweep.report.json"
        text_path = out_dir / "sql-refutation-sweep.report.txt"
        csv_path = out_dir / "sql-refutation-sweep.csv"
        assert json_path.is_file() and text_path.is_file()
        assert csv_path.is_file()
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "k,sigma_p,epsilon,eta,product,sigma_x_post"

    def test_runs_are_deterministic(self, tmp_path, capsys):
        dirs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            assert main([
                "run", "noiseless-violation", "von-neumann-bound",
                "--out-dir", str(out_dir), "--format", "both"]) == 0
            capsys.readouterr()
            dirs.append(out_dir)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_override_changes_samples_not_verdict(self, tmp_path,
                                                       capsys):
        body = """\
            name: seeded
            model: noiseless
            checks: [born]
            born: {samples: 2000}
            object: {sigma_x: 1.0, sigma_p: 0.5}
            probe: {sigma_x: 0.25, sigma_p: 2.0}
            """
        path = _write(tmp_path, body)
        stats = []
        for seed in ("7", "7", "8"):
            assert main(["run", path, "--seed", seed, "--format",
                         "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["passed"] is True
            assert report["seed"] == int(seed)
            stats.append(report["checks"]["born"]["values"]["ks_statistic"])
        assert stats[0] == stats[1]
        assert stats[0] != stats[2]

    def test_verbose_text_includes_values(self, tmp_path, capsys):
        path = _write(tmp_path, FAST_VERDICT)
        assert main(["run", path, "-v"]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert "eta" in out


class TestRenderers:
    def test_json_is_sorted_and_newline_terminated(self, tmp_path):
        scenario = scenarios.load_scenario(_write(tmp_path, FAST_VERDICT))
        report, _ = run_scenario(scenario)
        text = render_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_text_has_one_line_per_check(self, tmp_path):
        scenario = scenarios.load_scenario(_write(tmp_path, FAST_VERDICT))
        report, _ = run_scenario(scenario)
        text = render_text(report)
        assert text.count("PASS") == 3  # two checks + overall
        assert "verdict" in text and "robertson" in text
