import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from backaction import cli, grid, scenarios, states
from backaction.canonical import LinearObservable
from backaction.cli import main, render_json, render_text, run_scenario
from test_gallery_reports import EXTRA


def _write(tmp_path, body, name="case.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


def _with(model, name, value):
    """Copy of a built model with one built field replaced."""
    model = copy.copy(model)
    object.__setattr__(model, name, value)
    return model


def _exits_two(capsys, argv):
    """Run argv and check the bad-input contract; return the error line.

    Exit 2, nothing on stdout, and exactly one stderr line, starting
    ``error:``, with no traceback.
    """
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n")
    assert lines[0].startswith("error:")
    return lines[0]


def _fails_one_condition(capsys, target, check, condition, tol=None):
    """Exactly the named condition of check fails, and with it the run."""
    tol = tol or {}
    outcome = cli._RUNNERS[check](cli._load_target(target),
                                  {**scenarios.DEFAULT_TOLERANCES, **tol})
    conditions = outcome["conditions"]
    assert [name for name in conditions if not conditions[name]] == [condition]
    overrides = [arg for key, value in tol.items()
                 for arg in ("--tol", f"{key}={value}")]
    assert main(["run", target, "--format", "json", *overrides]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][check]["passed"] is False
    assert report["passed"] is False


FAST_VERDICT = """\
    name: fast-verdict
    model: noiseless
    checks: [verdict, robertson]
    object: {sigma_x: 1.0, sigma_p: 0.5}
    probe: {sigma_x: 0.5, sigma_p: 1.0}
    """

# The factoring residual is rounding of order 1e-16, which no window
# built in floating point brings under 1e-30: an honestly failing check.
FAILING_REALIZATION = """\
    name: exact-beyond-rounding
    model: noiseless
    checks: [realization]
    tolerances: {exact: 1.0e-30}
    """


# A pointer centred a million widths away: the moment-route epsilon and
# the cascade deviation carry rounding of that size.
FAR_POINTER = """\
    name: far-pointer
    model: noiseless
    checks: [{check}]
    object: {{sigma_x: 1.0, sigma_p: 0.5}}
    probe: {{sigma_x: 0.5, sigma_p: 1.0, mean_x: 1e6}}
    """

# Squeezing 6 x^2 - 6 p_x^2 over one window: entries near e^12 / 2.
LARGE_SQUEEZE = """\
    name: large-squeeze
    model: custom
    checks: [verdict, robertson, repeatability]
    interaction:
      terms:
        - {{coefficient: {c}, first: x, second: x}}
        - {{coefficient: -{c}, first: px, second: px}}
    object: {{sigma_x: 1.0, sigma_p: 0.5}}
    probe: {{sigma_x: 0.5, sigma_p: 1.0}}
    """

# A custom stretch coupling: no exact readout, no shears, no reference.
CUSTOM_CHECK = """\
name: custom-check
model: custom
checks: [{check}]
interaction: {{terms: [{{coefficient: 1, first: x, second: py}}]}}
object: {{sigma_x: 1.0, sigma_p: 0.5}}
probe: {{sigma_x: 0.5, sigma_p: 1.0}}
"""

OVERFLOW = """\
    name: overflow
    model: noiseless
    checks: [{check}]
    object: {obj}
    probe: {{sigma_x: 1.0, sigma_p: 0.5}}
    """

SWEEP = """\
    name: sweep
    model: noiseless
    checks: [limit_sweep]
    sweep: {{kind: {kind}, k_min: {k_min}, k_max: {k_max}}}
    """

GRID = """\
    name: grid
    model: {model}
    checks: [grid_crosscheck]
    grid: {{nx: {n}, ny: {n}, half_width: {half_width}}}
    object: {obj}
    probe: {probe}
    """

PACKET = "{sigma_x: 1, sigma_p: 0.5}"

# A superposition whose first component takes the saturating sigma_p.
SATURATED = """\
name: saturated
model: noiseless
checks: [grid_crosscheck]
object:
  kind: superposition
  components: [{{sigma_x: {sigma_x}, mean_x: -3.0}}, {{sigma_x: 0.6, mean_x: 3.0}}]
probe: {{sigma_x: 0.5, sigma_p: 1.0}}
"""


def _scaled_deviation(factor):
    """Model change: the noiseless cascade's closed form times factor."""
    return lambda m: _with(m, "reference", m.reference._replace(
        deviation=lambda sigma_y, mean_y: factor * math.hypot(
            sigma_y, mean_y)))


# Per case: a check, its scenario, the tolerances tightened, the change to
# the built noiseless model, and the one condition that then fails.
BORN = FAST_VERDICT.replace("verdict, robertson", "born")
REPEATABILITY = FAST_VERDICT.replace("verdict, robertson", "repeatability")
ONE_FAILING_CONDITION = {
    "verdict": ("verdict", FAST_VERDICT, {}, lambda m: _with(
        m, "disturbance_operator", LinearObservable(
            m.system, 0.3 * m.disturbance_operator.coeffs)),
        "tradeoff_meets_bound"),
    "born": ("born", BORN, {}, lambda m: _with(m, "readout", LinearObservable(
        m.system, 0.5 * m.readout.coeffs)), "ks_shape"),
    "repeatability": ("repeatability", REPEATABILITY, {},
                      _scaled_deviation(2.0), "deviation_matches_closed_form"),
    # A closed form below the deviation: |deviation - closed| > exact
    # also puts the deviation above alpha = closed + exact.
    "repeatability-halved": ("repeatability", REPEATABILITY, {},
                             _scaled_deviation(0.5),
                             "deviation_matches_closed_form"),
    "realization": ("realization", FAILING_REALIZATION, {"exact": 1e-300},
                    None, "residual_zero"),
    "limit-sweep": ("limit_sweep", SWEEP.format(
        kind="sharpen_pointer", k_min=0, k_max=10), {"exact": 1e-300}, None,
        "epsilon_zero"),
    "grid-crosscheck": ("grid_crosscheck", GRID.format(
        model="noiseless", n=64, half_width=10, obj=PACKET, probe=PACKET),
        {"tv": 1e-300}, None, "readout_matches_initial_law"),
    "grid-match": ("grid_crosscheck", GRID.format(
        model="von_neumann", n=64, half_width=10, obj=PACKET, probe=PACKET),
        {"grid_match": 1e-300}, None, "epsilon_routes_agree"),
    "grid-epsilon": ("grid_crosscheck", GRID.format(
        model="noiseless", n=64, half_width=10, obj=PACKET, probe=PACKET),
        {"exact": 1e-300}, None, "epsilon_grid_vanishes"),
    "ks-alpha": ("born", BORN, {"ks_alpha": 0.9}, None, "ks_shape"),
}


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
        path = _write(tmp_path, FAILING_REALIZATION)
        assert main(["run", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_unknown_name_exits_two(self, capsys):
        err = _exits_two(capsys, ["run", "no-such-scenario"])
        assert "no-such-scenario" in err

    def test_invalid_file_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "name: bad\nmodel: nope\nchecks: [verdict]\n")
        assert "model" in _exits_two(capsys, ["run", path])

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_exits_two(self, tmp_path, capsys, kind):
        path = tmp_path / "case.yaml"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe")
        err = _exits_two(capsys, ["run", str(path)])
        assert str(path) in err and "cannot read" in err

    def test_out_dir_over_a_file_exits_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        # A directory where the report goes fails when the report is written.
        report = tmp_path / "clash" / "noiseless-violation.report.json"
        report.mkdir(parents=True)
        for out_dir, where in ((taken, taken), (taken / "sub", taken),
                               (report.parent, report)):
            err = _exits_two(capsys, ["run", "noiseless-violation", "--format",
                                      "json", "--out-dir", str(out_dir)])
            assert "--out-dir" in err and str(where) in err

    def test_out_dir_refuses_a_repeated_scenario_name(self, tmp_path,
                                                       capsys):
        # A second scenario named noiseless-violation would overwrite the
        # bundled one's reports; it is refused before it runs.
        alone, both = tmp_path / "alone", tmp_path / "both"
        assert main(["run", "noiseless-violation", "--format", "both",
                     "--out-dir", str(alone)]) == 0
        capsys.readouterr()
        path = _write(tmp_path, FAST_VERDICT.replace(
            "name: fast-verdict", "name: noiseless-violation").replace(
            "model: noiseless", "model: von_neumann").replace(
            ", robertson", ""))
        err = _exits_two(capsys, ["run", "noiseless-violation", path,
                                  "--format", "both", "--out-dir", str(both)])
        assert path in err and "'noiseless-violation'" in err
        assert ({f.name: f.read_bytes() for f in both.iterdir()}
                == {f.name: f.read_bytes() for f in alone.iterdir()})

    def test_negative_seed_exits_two(self, capsys):
        err = _exits_two(capsys, ["run", "noiseless-violation", "--seed", "-1"])
        assert "--seed" in err and ">= 0" in err

    @pytest.mark.parametrize("check", ["verdict", "repeatability"])
    def test_far_pointer_passes_exact_checks(self, tmp_path, capsys, check):
        path = _write(tmp_path, FAR_POINTER.format(check=check))
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert f"{check:<17} PASS" in out

    def test_far_momenta_pass_the_noiseless_product(self, tmp_path, capsys):
        # eta ~ 2e6 times epsilon ~ 1e-10: the product's slack is second
        # order in the preparation's size.
        body = FAR_POINTER.format(check="verdict").replace(
            "sigma_p: 0.5}", "sigma_p: 0.5, mean_p: 1e6}").replace(
            "mean_x: 1e6}", "mean_x: 1e6, mean_p: 1e6}")
        path = _write(tmp_path, body)
        assert main(["run", path, "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["checks"]["verdict"]["values"]
        assert values["eta"] > 1e6 and values["product"] > 1e-6

    def test_every_superposition_component_sets_the_exact_slack(
            self, tmp_path, capsys):
        # Only the second packet moves fast, and it makes eta ~ 7e5 and
        # the product ~ 1e-10: the slack scales with the largest component.
        path = _write(tmp_path, """\
            name: far-component
            model: noiseless
            checks: [verdict, repeatability]
            object:
              kind: superposition
              components: [{sigma_x: 1.0}, {sigma_x: 1.0, mean_p: 1e6}]
            probe: {sigma_x: 0.5, sigma_p: 1.0, mean_x: 3.0}
            """)
        assert main(["run", path, "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["checks"]["verdict"]["values"]
        assert values["eta"] > 1e5 and values["product"] > 1e-12

    def test_large_custom_window_runs(self, tmp_path, capsys):
        path = _write(tmp_path, LARGE_SQUEEZE.format(c=6))
        assert main(["run", path]) == 0
        assert "overall           PASS" in capsys.readouterr().out

    def test_model_build_error_exits_two(self, tmp_path, capsys):
        # 400 x^2 - 400 p_x^2 overflows the window's exponential, which is
        # built when the scenario loads.
        path = _write(tmp_path, LARGE_SQUEEZE.format(c=400))
        err = _exits_two(capsys, ["run", path])
        assert "interaction" in err and "non-finite" in err

    @pytest.mark.parametrize("body, where", [
        # sigma_x^2 overflows while the object state is built at load.
        (OVERFLOW.format(check="verdict",
                         obj="{sigma_x: 1.0e200, sigma_p: 1.0}"),
         ".object: OverflowError: sigma_x = 1e+200 is too large"),
        # A mean of 1e200 meets the gap's rounding-size coefficients.
        (OVERFLOW.format(check="repeatability",
                         obj="{sigma_x: 1, sigma_p: 1, mean_x: 1.0e200}"),
         "OverflowError: second moment is inf"),
        # No box of 64 points holds a packet 1000 widths off centre.
        ("name: far-box\nmodel: noiseless\nchecks: [grid_crosscheck]\n"
         "grid: {nx: 64, ny: 64}\n"
         "object: {sigma_x: 1, sigma_p: 0.5, mean_x: 1000}\n"
         "probe: {sigma_x: 1, sigma_p: 0.5}\n", ".grid: grid of 64 points"),
        # The sharpest point is built at load: its spreads 2^512 overflow
        # when squared, and 2^-1075 rounds to zero.
        (SWEEP.format(kind="sharpen_momentum", k_min=513, k_max=513),
         ".sweep: OverflowError: sigma_x = 1.341e+154 is too large"),
        (SWEEP.format(kind="sharpen_pointer", k_min=513, k_max=513),
         ".sweep: OverflowError: sigma_p = 1.341e+154 is too large"),
        (SWEEP.format(kind="sharpen_momentum", k_min=1075, k_max=1075),
         ".sweep: sigma_p values must be positive, got 0.0"),
        (SWEEP.format(kind="sharpen_pointer", k_min=1075, k_max=1075),
         ".sweep: sigma_y values must be positive, got 0.0"),
        ("a: [\n", "line 2, column 1"),
        # The grid state is built at load: a packet far outside an
        # explicit box, a box that clips the packets, a mixed packet.
        (GRID.format(model="noiseless", n=64, half_width=10, probe=PACKET,
                     obj="{sigma_x: 1, sigma_p: 0.5, mean_x: 1000}"),
         ".grid: wavefunction vanished on the grid"),
        (GRID.format(model="noiseless", n=64, half_width=3, obj=PACKET,
                     probe=PACKET),
         ".grid: initial state already puts mass"),
        (GRID.format(model="noiseless", n=128, half_width=10, obj=PACKET,
                     probe="{sigma_x: 1, sigma_p: 1}"),
         ".grid: grid packets are pure states: the probe has sigma_x * "
         "sigma_p * sqrt(1 - rho^2) = 1 hbar"),
        # An explicit box meets the momentum ceiling auto_half_width
        # applies to the box it picks.
        (GRID.format(model="noiseless", n=16, half_width=10, obj=PACKET,
                     probe="{sigma_x: 0.5, sigma_p: 1}"),
         ".grid: grid of 16 points cannot hold"),
        (GRID.format(model="von_neumann", n=64, half_width=10, probe=PACKET,
                     obj="{sigma_x: 1, sigma_p: 0.5, mean_p: 30}"),
         ".grid: grid of 64 points cannot hold"),
        (GRID.format(model="von_neumann", n=64, half_width=10, obj=PACKET,
                     probe="{sigma_x: 1.0e-3, sigma_p: 500}"),
         ".grid: grid of 64 points cannot hold"),
        # A single-mode state names no mode index.
        (OVERFLOW.format(check="verdict", obj="{sigma_x: 0.5, sigma_p: 0.5}"),
         ".object: sigma_x*sigma_p*sqrt(1-rho^2) = 0.25"),
        # Spreads that load but whose run-time figures overflow: eta, and
        # the von Neumann deviation, which sums both pointer variances.
        ("name: huge-eta\nmodel: noiseless\nchecks: [verdict]\n"
         "object: {sigma_x: 1.0e154, sigma_p: 1.0e154}\n"
         "probe: {sigma_x: 1.0, sigma_p: 1.0e154}\n",
         "FloatingPointError: overflow"),
        ("name: huge-pointer\nmodel: von_neumann\nchecks: [repeatability]\n"
         "object: {sigma_x: 1.0, sigma_p: 1.0}\n"
         "probe: {sigma_x: 1.0e154, sigma_p: 1.0}\n",
         "FloatingPointError: overflow"),
        # Variance and squared mean are finite, and their sum, epsilon^2, is not.
        ("name: far-pointer\nmodel: von_neumann\nchecks: [verdict]\n"
         "object: {sigma_x: 1.0, sigma_p: 1.0}\n"
         "probe: {sigma_x: 1.0e154, sigma_p: 1.0, mean_x: 1.2e154}\n",
         "OverflowError: second moment is inf"),
        # epsilon * eta is finite and the bound hbar/2 tiny: float division
        # overflows to inf without raising, and JSON would read Infinity.
        ("name: tiny-hbar\nmodel: von_neumann\nhbar: 1.0e-300\n"
         "checks: [verdict]\nobject: {sigma_x: 1.0e5, sigma_p: 1.0e5}\n"
         "probe: {sigma_x: 1.0e5, sigma_p: 1.0e5}\n",
         "OverflowError: product_over_bound is inf"),
        # A finite window with entries near 3e199, whose squares overflow
        # the symplectic guard's size.
        (LARGE_SQUEEZE.format(c=230),
         ".interaction: matrix entries up to 2.981e+199 are too large"),
        # Malformed sections, each refused with the section named.
        ("1: 2\nname: key\nmodel: noiseless\nchecks: [realization]\n",
         "case.yaml: keys must be strings, got 1"),
        ("name: mixed-probe\nmodel: noiseless\nchecks: [verdict]\n"
         f"object: {PACKET}\n"
         "probe: {kind: superposition, sigma_x: 1, sigma_p: 0.5}\n",
         ".probe: kind must be 'gaussian' here"),
        (OVERFLOW.format(check="verdict", obj="{kind: wavepacket}"),
         ".object: kind must be 'gaussian' or 'superposition', "
         "got 'wavepacket'"),
        ("name: no-terms\nmodel: custom\nchecks: [verdict]\n"
         "interaction: {terms: []}\n",
         ".interaction: 'terms' must be a non-empty list"),
        ("name: listed-coordinate\nmodel: custom\nchecks: [verdict]\n"
         "interaction: {terms: [{coefficient: 1, first: [x], second: py}]}\n",
         ".interaction.terms[0]: 'first' must be one of x, px, y, py, "
         "got ['x']"),
        # A list where a name belongs, looked up only after its type.
        ("name: listed-check\nmodel: noiseless\nchecks: [[verdict]]\n",
         "unknown check ['verdict']"),
        (SWEEP.format(kind="[a]", k_min=0, k_max=1),
         ".sweep: kind must be one of sharpen_momentum, sharpen_pointer, "
         "got ['a']"),
        ("name: listed-model\nmodel: [noiseless]\nchecks: [realization]\n",
         "'model' must be one of von_neumann, noiseless, custom, "
         "got ['noiseless']"),
        # A check that cannot mean anything for the model, refused at load
        # with what the model lacks.
        (CUSTOM_CHECK.format(check="born"), "the born check needs an exact "
         "readout (epsilon = 0, as model 'noiseless' has), which model "
         "'custom' lacks"),
        (CUSTOM_CHECK.format(check="realization"), "the realization check "
         "needs two or more shear steps (as model 'noiseless' has), which "
         "model 'custom' lacks"),
        (CUSTOM_CHECK.format(check="limit_sweep")
         + "sweep: {kind: sharpen_pointer}\n", "the limit_sweep check needs "
         "reference closed forms (built-in models have them), which model "
         "'custom' lacks"),
        (CUSTOM_CHECK.format(check="grid_crosscheck"), "the grid_crosscheck "
         "check needs a shear factorization (built-in models have one), "
         "which model 'custom' lacks"),
        # Below hbar ~ 2e-12 an absolute slack of 1e-12 on >= hbar/2 would
        # exceed the bound; the slack is relative to it at every hbar.
        ("name: tiny-hbar-object\nmodel: von_neumann\nhbar: 1.0e-13\n"
         "checks: [verdict, robertson]\n"
         "object: {sigma_x: 1.0e-20, sigma_p: 1.0e-20}\n"
         "probe: {sigma_x: 1.0e-20, sigma_p: 1.0e-20}\n",
         ".object: sigma_x*sigma_p*sqrt(1-rho^2) = 1e-40 < hbar/2 = 5e-14"),
        # The lone x px term's ordering constant, hbar/2, is refused at
        # every hbar, not only where it exceeds an absolute 1e-12.
        (CUSTOM_CHECK.format(check="verdict").replace(
            "first: x, second: py", "first: x, second: px")
         + "hbar: 1.0e-13\n", ".interaction: term list leaves a non-zero "
         "ordering constant (5.000e-14)"),
        # libyaml would keep the last of two equal keys without a word.
        ("name: twice\nchecks: [verdict]\nchecks: [realization]\n"
         "model: noiseless\n",
         "not valid YAML (duplicate key 'checks' at line 3, column 1)"),
        (FAST_VERDICT.replace("sigma_p: 0.5}", "sigma_p: 0.5, sigma_p: 0.01}"),
         "not valid YAML (duplicate key 'sigma_p' at line 4, column"),
        # A component's saturating sigma_p overflows to inf, or underflows
        # to zero, at an extreme sigma_x.
        (SATURATED.format(sigma_x="1.0e-320"),
         ".object.components[0]: sigma_x = 1e-320 gives a saturating "
         "sigma_p of inf; give sigma_p"),
        (SATURATED.format(sigma_x="1.0e+308"),
         ".object.components[0]: sigma_x = 1e+308 gives a saturating "
         "sigma_p of 0.0; give sigma_p"),
        (SATURATED.format(sigma_x="5.0e-324, correlation: 0.9999999999999999"),
         ".object.components[0]: sigma_x = 5e-324 gives a saturating "
         "sigma_p of inf; give sigma_p"),
        # More samples than numpy can shape, refused at load before any
        # is drawn: numpy's limit is sys.maxsize bytes, 8 per sample.
        ("name: huge-born\nmodel: noiseless\nchecks: [born]\n"
         f"object: {PACKET}\nprobe: {{sigma_x: 0.5, sigma_p: 1.0}}\n"
         "born: {samples: 1000000000000000000000000}\n",
         ".born: 'samples' must be <= 1152921504606846975, got "
         "1000000000000000000000000"),
        ("name: huge-born\nmodel: noiseless\nchecks: [born]\n"
         f"object: {PACKET}\nprobe: {{sigma_x: 0.5, sigma_p: 1.0}}\n"
         "born: {samples: 4611686018427387904}\n",
         ".born: 'samples' must be <= 1152921504606846975, got "
         "4611686018427387904"),
    ], ids=["huge-spread", "huge-mean", "box", "sharpen-momentum-513",
            "sharpen-pointer-513", "sharpen-momentum-1075",
            "sharpen-pointer-1075", "invalid-yaml", "vanished", "tight-box",
            "impure-probe", "ceiling-16", "ceiling-mean-p",
            "ceiling-probe", "inadmissible-object", "overflow-verdict",
            "overflow-repeatability", "overflow-second-moment",
            "overflow-product-over-bound",
            "squeeze-230", "non-string-key", "superposition-probe",
            "wavepacket-object", "no-terms", "unhashable-coordinate",
            "unhashable-check", "unhashable-sweep-kind", "listed-model",
            "custom-born", "custom-realization", "custom-limit-sweep",
            "custom-grid-crosscheck", "tiny-hbar-object", "tiny-hbar-x-px",
            "duplicate-key", "duplicate-nested-key", "saturated-tiny-sigma-x",
            "saturated-huge-sigma-x", "saturated-zero-spread",
            "born-samples-beyond-numpy", "born-samples-beyond-numpy-bytes"])
    def test_unrunnable_input_exits_two(self, tmp_path, capsys, body, where):
        path = _write(tmp_path, body)
        assert where in _exits_two(capsys, ["run", path])

    @pytest.mark.parametrize("k_min, k_max", [(0, 16), (0, 40), (512, 512)])
    def test_sharp_momentum_sweep_passes(self, tmp_path, capsys, k_min,
                                         k_max):
        # epsilon is rounding times the point's sigma_x = hbar 2^(k - 1).
        path = _write(tmp_path, SWEEP.format(
            kind="sharpen_momentum", k_min=k_min, k_max=k_max))
        assert main(["run", path]) == 0
        assert "overall           PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("k_max", [80, 200])
    def test_sharp_pointer_sweep_passes(self, tmp_path, capsys, k_max):
        # Once sigma_y = 2^-k falls below 2.2e-16 the deviation stops at
        # that rounding floor, which is still within exact of sigma_y.
        path = _write(tmp_path, SWEEP.format(
            kind="sharpen_pointer", k_min=0, k_max=k_max))
        assert main(["run", path]) == 0
        assert "overall           PASS" in capsys.readouterr().out

    def test_saturating_preparation_at_large_hbar_passes(self, tmp_path,
                                                         capsys):
        # 0.9 * 555555.5555555555 rounds to 499999.99999999994 < hbar/2;
        # the slack on >= hbar/2 scales with the bound.
        body = ("name: large-hbar\nmodel: von_neumann\nhbar: 1.0e6\n"
                "checks: [verdict, robertson, repeatability]\n"
                "object: {sigma_x: 1, sigma_p: 1.0e6}\n"
                "probe: {sigma_x: 0.9, sigma_p: 555555.5555555555}\n")
        path = _write(tmp_path, body)
        assert main(["run", path]) == 0
        assert "overall           PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("mean_x", ["1.0e14", "1.0e16"])
    def test_born_far_off_centre_passes(self, tmp_path, capsys, mean_x):
        # Absolute samples at 1e14 are quantized to the float spacing; the
        # check samples and tests about the reference mean instead.
        body = ("name: far-born\nmodel: noiseless\nchecks: [born]\n"
                f"object: {{sigma_x: 1, sigma_p: 1, mean_x: {mean_x}}}\n"
                "probe: {sigma_x: 1.0, sigma_p: 0.5}\n")
        path = _write(tmp_path, body)
        assert main(["run", path, "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["checks"]["born"]["values"]
        assert values["outcome_mean"] == values["reference_mean"] == float(mean_x)

    @pytest.mark.parametrize("x_coeff, passed", [(1 - 2.0 ** -53, True),
                                                 (1 - 1e-6, False)])
    def test_born_compares_means_at_the_preparation_size(self, x_coeff,
                                                         passed):
        # At mean_x 1e16 a readout one rounding step short of x moves the
        # outcome mean by one float spacing, 2, within exact * 1e16; a
        # 1e-6 shortfall moves it by 1e10.
        sc = scenarios.parse_scenario({
            "name": "far-born", "model": "noiseless", "checks": ["born"],
            "object": {"sigma_x": 1, "sigma_p": 1, "mean_x": 1.0e16},
            "probe": {"sigma_x": 1.0, "sigma_p": 0.5}})
        model = copy.copy(sc.model)
        coeffs = model.readout.coeffs.copy()
        coeffs[0] = x_coeff
        object.__setattr__(model, "readout",
                           LinearObservable(model.system, coeffs))
        report, _ = run_scenario(dataclasses.replace(sc, model=model))
        born = report["checks"]["born"]
        assert born["values"]["outcome_mean"] != 1.0e16
        assert born["passed"] == passed

    @pytest.mark.parametrize("model", [
        "von_neumann",
        "custom\ninteraction: {terms: [{coefficient: 1, first: x, second: py}]}",
    ], ids=["von_neumann", "custom"])
    def test_born_outside_noiseless_exits_two(self, tmp_path, capsys, model):
        # The von Neumann readout's std is 1.118 against the object's 1.0:
        # the check could only ever fail, so the scenario is refused.
        body = (f"name: smeared-readout\nmodel: {model}\nchecks: [born]\n"
                "object: {sigma_x: 1.0, sigma_p: 0.5}\n"
                "probe: {sigma_x: 0.5, sigma_p: 1.0}\n")
        path = _write(tmp_path, body)
        err = _exits_two(capsys, ["run", path])
        assert "born" in err and "noiseless" in err

    @pytest.mark.parametrize("module, name, body, where", [
        # The grid is built while the scenario loads.
        (grid, "init_grid", GRID.format(
            model="noiseless", n=131072, half_width=10, obj=PACKET,
            probe=PACKET), "case.yaml.grid: MemoryError: Unable to allocate"),
        # The born samples are drawn at run time.
        (states, "sample_outcomes",
         "name: many-samples\nmodel: noiseless\nchecks: [born]\n"
         f"born: {{samples: 100000000000000}}\nobject: {PACKET}\n"
         f"probe: {PACKET}\n", "error: MemoryError: Unable to allocate"),
    ], ids=["grid-at-load", "born-samples-at-run"])
    def test_allocation_refused_exits_two(self, tmp_path, capsys,
                                          monkeypatch, module, name, body,
                                          where):
        # Whether the kernel refuses a huge array depends on its overcommit
        # policy, so the allocating call refuses it here instead.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 256. GiB for an array")

        monkeypatch.setattr(module, name, refuse)
        assert where in _exits_two(capsys, ["run", _write(tmp_path, body)])

    def test_bad_tol_exits_two(self, capsys):
        err = _exits_two(capsys, ["run", "noiseless-violation", "--tol", "nope=1"])
        assert "unknown key" in err

    @pytest.mark.parametrize("key", ["grid_epsilon_multi", "bound",
                                     "grid_epsilon"])
    @pytest.mark.parametrize("where", ["yaml", "tol"])
    def test_removed_tolerance_key_exits_two(self, tmp_path, capsys, key,
                                             where):
        # exact is the one rounding slack, >= bounds included, and exact
        # times the box half-width holds every object's grid epsilon: the
        # old bound and grid epsilon keys are unknown wherever they are set.
        body = textwrap.dedent(GRID.format(
            model="noiseless", n=64, half_width=10, obj=PACKET,
            probe=PACKET))
        tol = []
        if where == "yaml":
            body += f"tolerances: {{{key}: 1.0e-9}}\n"
        else:
            tol = ["--tol", f"{key}=1e-9"]
        err = _exits_two(capsys, ["run", _write(tmp_path, body), *tol])
        assert f"unknown key(s) '{key}'; " in err
        assert err.endswith("allowed: exact, grid_match, ks_alpha, tv")

    def test_tol_value_validated(self, capsys):
        # --tol goes through the same validator as a scenario's tolerances.
        for pair in ("exact=zero", "exact=-1", "ks_alpha=1", "ks_alpha=2",
                     "exact"):
            err = _exits_two(capsys, ["run", "noiseless-violation", "--tol", pair])
            assert pair.partition("=")[0] in err

    def test_tightened_tolerance_can_fail_a_passing_check(self, tmp_path,
                                                          capsys):
        # The noiseless verdict reports epsilon at rounding scale; a
        # sub-rounding tolerance flips it, which is exactly what --tol is
        # for: probing how much margin a pass has.
        path = _write(tmp_path, FAST_VERDICT)
        assert main(["run", path, "--tol", "exact=1e-300"]) == 1
        capsys.readouterr()

    def test_exact_slack_reaches_the_bound_flags(self, capsys):
        # The floor of epsilon * eta >= hbar/2 is hbar/2 (1 - exact), here
        # 0, so the noiseless product, zero up to rounding, meets it.
        assert main(["run", "noiseless-violation", "--tol", "exact=1",
                     "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["checks"]["verdict"][
            "values"]
        assert values["product_meets_bound"] is True

    @pytest.mark.parametrize("check, body, tol, change, condition",
                             ONE_FAILING_CONDITION.values(),
                             ids=list(ONE_FAILING_CONDITION))
    def test_one_failing_condition_fails_the_check(
            self, tmp_path, capsys, monkeypatch, check, body, tol, change,
            condition):
        # A tightened tolerance or one changed model coefficient fails
        # exactly one named condition, and with it the check and the run.
        # robertson is absent: no scenario that loads can fail it.
        if change is not None:
            build = scenarios.MODELS["noiseless"]
            monkeypatch.setitem(scenarios.MODELS, "noiseless",
                                lambda hbar: change(build(hbar=hbar)))
        _fails_one_condition(capsys, _write(tmp_path, body), check, condition,
                             tol)

    def test_every_tolerance_can_fail_a_condition(self):
        # A tolerance that no condition can fail decides nothing.
        assert {key for case in ONE_FAILING_CONDITION.values()
                for key in case[2]} == set(scenarios.DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("name, kind, take, condition", [
        ("bk-refutation-sweep", "sharpen_pointer",
         lambda point, other: point._replace(deviation=other.deviation),
         "deviation_matches_sigma_y"),
        ("sql-refutation-sweep", "sharpen_momentum",
         lambda point, other: point._replace(report=dataclasses.replace(
             point.report, eta=other.report.eta)),
         "eta_matches_sqrt2_sigma_p"),
    ], ids=["deviation", "eta"])
    def test_rows_out_of_order_fail_their_closed_form(
            self, capsys, monkeypatch, name, kind, take, condition):
        # One column swapped between rows k = 4 and 5 puts the sweep out of
        # order.  The closed form each row must meet is the one condition
        # that fails: no trend condition is needed to see it.
        points_of = scenarios.SWEEPS[kind][0]

        def swapped(model, values):
            points = points_of(model, values)
            if len(points) > 5:  # not the lone sharpest point built at load
                points[4], points[5] = (take(points[4], points[5]),
                                        take(points[5], points[4]))
            return points

        monkeypatch.setitem(scenarios.SWEEPS, kind,
                            (swapped, *scenarios.SWEEPS[kind][1:]))
        _fails_one_condition(capsys, name, "limit_sweep", condition)

    @pytest.mark.parametrize("model, hbar, change, condition", [
        ("von_neumann", 1e-30, lambda point: point._replace(
            report=dataclasses.replace(point.report,
                                       product=2.0 * point.report.product)),
         "product_at_bound"),
        ("noiseless", 1e-30, lambda point: point._replace(
            sigma_x_post=2.0 * point.sigma_x_post),
         "sigma_x_post_matches_closed_form"),
        ("noiseless", 1.0, lambda point: point._replace(
            report=dataclasses.replace(point.report,
                                       eta=point.report.eta + 1e-14)),
         "eta_matches_sqrt2_sigma_p"),
        ("noiseless", 1e-30, lambda point: point._replace(
            report=dataclasses.replace(point.report,
                                       epsilon=point.report.epsilon + 1e-14)),
         "epsilon_zero"),
    ], ids=["product-doubled", "sigma-x-post-doubled", "eta-offset",
            "epsilon-offset"])
    def test_sharpen_momentum_forms_scale_with_their_figures(
            self, tmp_path, capsys, monkeypatch, model, hbar, change,
            condition):
        # At k = 10 each closed form is met within exact times its own
        # size (hbar/2, sigma_p, the form, the larger packet spread), not
        # an absolute 1e-12: that would pass a doubled product (a gap of
        # 5e-31) or sigma_x_post (7e-31) at hbar = 1e-30, and offsets of
        # 1e-14 on eta and epsilon where sigma_p is 2^-10.
        points_of = scenarios.SWEEPS["sharpen_momentum"][0]
        monkeypatch.setitem(scenarios.SWEEPS, "sharpen_momentum", (
            lambda m, values: [change(p) for p in points_of(m, values)],
            *scenarios.SWEEPS["sharpen_momentum"][1:]))
        body = SWEEP.format(kind="sharpen_momentum", k_min=10, k_max=10)
        body = body.replace("model: noiseless",
                            f"model: {model}\n    hbar: {hbar!r}")
        _fails_one_condition(capsys, _write(tmp_path, body), "limit_sweep",
                             condition)

    @pytest.mark.parametrize("hbar", [1e-30, 1.0, 1e30])
    @pytest.mark.parametrize("doubled, k_min, k_max", [(False, 0, 60),
                                                       (True, 45, 58)],
                             ids=["honest", "doubled"])
    def test_sharpen_pointer_deviation_scales_with_sigma_y(
            self, tmp_path, capsys, monkeypatch, hbar, doubled, k_min, k_max):
        # The von Neumann deviation is sqrt(2) sigma_y to the bit, so its
        # form scales by sigma_y = 2^-k.  At an absolute scale of 1.0 a
        # doubled deviation, off by sqrt(2) 2^-k, passed from k = 45.
        points_of = scenarios.SWEEPS["sharpen_pointer"][0]
        if doubled:
            monkeypatch.setitem(scenarios.SWEEPS, "sharpen_pointer", (
                lambda m, values: [p._replace(deviation=2.0 * p.deviation)
                                   for p in points_of(m, values)],
                *scenarios.SWEEPS["sharpen_pointer"][1:]))
        body = SWEEP.format(kind="sharpen_pointer", k_min=k_min, k_max=k_max)
        body = body.replace("model: noiseless",
                            f"model: von_neumann\n    hbar: {hbar!r}")
        path = _write(tmp_path, body)
        if doubled:
            _fails_one_condition(capsys, path, "limit_sweep",
                                 "deviation_matches_sqrt2_sigma_y")
        else:
            assert main(["run", path]) == 0
            assert "overall           PASS" in capsys.readouterr().out

    def test_si_hbar_noiseless_product_misses_the_bound(self, tmp_path,
                                                       capsys):
        # At hbar ~ 1e-34 an absolute slack of 1e-12 on >= hbar/2 would
        # pass any product; the noiseless product of ~1e-50 must miss.
        body = ("name: si-noiseless\nmodel: noiseless\n"
                "hbar: 1.054571817e-34\nchecks: [verdict, robertson]\n"
                "object: {sigma_x: 1.0e-10, sigma_p: 1.0e-24}\n"
                "probe: {sigma_x: 1.0e-11, sigma_p: 1.0e-23}\n")
        path = _write(tmp_path, body)
        assert main(["run", path, "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["checks"]["verdict"][
            "values"]
        assert values["product"] < 1e-45 < values["bound"]
        assert values["product_meets_bound"] is False
        assert values["tradeoff_meets_bound"] is True

    @pytest.mark.parametrize("noise, failing", [(None, []),
                                                (0.005, ["epsilon_zero"])])
    def test_si_scale_noise_is_judged_at_the_preparation_size(self, noise,
                                                             failing):
        # A noise operator of 0.005 x reads epsilon = 5e-13, half a percent
        # of sigma_x = 1e-10: noise at the preparation's own scale, which a
        # slack floored at exact * 1 would pass.  The noiseless model's
        # epsilon, about 1e-27, is rounding at that scale and passes.
        sc = scenarios.parse_scenario({
            "name": "si-noise", "model": "noiseless",
            "hbar": 1.054571817e-34, "checks": ["verdict"],
            "object": {"sigma_x": 1.0e-10, "sigma_p": 1.0e-24},
            "probe": {"sigma_x": 1.0e-11, "sigma_p": 1.0e-23}})
        model = sc.model
        if noise is not None:
            model = _with(model, "noise_operator", LinearObservable(
                model.system, noise * model.measured.coeffs))
        sc = dataclasses.replace(sc, model=model)
        conditions = cli._verdict_check(
            sc, scenarios.DEFAULT_TOLERANCES)["conditions"]
        assert [name for name in conditions if not conditions[name]] == failing
        report, _ = run_scenario(sc)
        assert report["checks"]["verdict"]["passed"] == (not failing)

    def test_json_format_parses(self, tmp_path, capsys):
        path = _write(tmp_path, FAST_VERDICT)
        assert main(["run", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert set(report["checks"]) == {"verdict", "robertson"}
        assert report["checks"]["verdict"]["values"]["epsilon"] <= 1e-12

    def test_multiple_targets_worst_exit_wins(self, tmp_path, capsys):
        good = _write(tmp_path, FAST_VERDICT, name="good.yaml")
        bad = _write(tmp_path, FAILING_REALIZATION, name="bad.yaml")
        assert main(["run", good, bad]) == 1
        out = capsys.readouterr().out
        assert "fast-verdict" in out and "exact-beyond-rounding" in out


@pytest.mark.parametrize("name", ["grid-crosscheck-gaussian",
                                  "grid-crosscheck-bimodal",
                                  "von-neumann-bound"])
def test_grid_crosscheck_shears_once(monkeypatch, name):
    # The readout held to its law comes off the epsilon/eta pass.
    scenario = scenarios.load_bundled(name)
    calls = []
    shear = grid._guarded_shear

    def counting(*args):
        calls.append(args)
        return shear(*args)

    monkeypatch.setattr(grid, "_guarded_shear", counting)
    report, _ = run_scenario(scenario)
    assert report["checks"]["grid_crosscheck"]["passed"]
    assert len(calls) == 1


def _scaled_packets(node, lam, mu):
    """An object or probe section with lengths times lam, momenta times mu."""
    if "components" in node:
        return {**node, "components": [_scaled_packets(c, lam, mu)
                                       for c in node["components"]]}
    factors = {"sigma_x": lam, "mean_x": lam, "sigma_p": mu, "mean_p": mu}
    return {key: value * factors[key] if key in factors else value
            for key, value in node.items()}


@pytest.mark.parametrize("lam, mu", [(2.0 ** 20, 2.0 ** -20), (1e10, 1e-10)],
                         ids=["2^20", "1e10"])
@pytest.mark.parametrize("name", ["grid-crosscheck-gaussian",
                                  "grid-crosscheck-bimodal",
                                  "von-neumann-bound"])
def test_grid_scenarios_pass_in_scaled_units(name, lam, mu):
    # hbar is unchanged, and so is the physics.  The grid's rounding floor
    # grows with the box: the noiseless epsilon_grid reads 2.6e-16 to
    # 3.4e-16 of the half-width at every scale, 4.47e-5 and 4.77e-5 at
    # lam = 1e10, where an absolute bound of 1e-8 failed both.
    raw = yaml.safe_load((scenarios._gallery_root() / f"{name}.yaml")
                         .read_text(encoding="utf-8"))
    for section in ("object", "probe"):
        raw[section] = _scaled_packets(raw[section], lam, mu)
    report, _ = run_scenario(scenarios.parse_scenario(raw))
    assert {check: body["passed"] for check, body in
            report["checks"].items()} == dict.fromkeys(raw["checks"], True)


def test_flipped_x_py_sign_fails_von_neumann_epsilon(monkeypatch):
    # epsilon of a y-only window is read off the sheared density, which a
    # sign flip in SHEARS moves as it moved the sheared x psi.  The readout
    # becomes y - x, which on this centred preparation has the law of
    # x + y, so only epsilon can see the flip.
    monkeypatch.setitem(grid.SHEARS, "x_py", (1, -1.0))
    report, _ = run_scenario(scenarios.load_bundled("von-neumann-bound"))
    conditions = report["checks"]["grid_crosscheck"]["values"]["conditions"]
    assert conditions == {"epsilon_routes_agree": False,
                          "eta_routes_agree": True,
                          "readout_matches_initial_law": True}


@pytest.mark.parametrize("name", ["grid-crosscheck-gaussian",
                                  "grid-crosscheck-bimodal",
                                  "von-neumann-bound"])
def test_wrong_axis_readout_fails_the_readout_law(monkeypatch, name):
    # A readout summed over y, not x, is the sheared x marginal: every grid
    # model's readout law sees it, the von Neumann one included.
    window_pass = grid.window_pass
    monkeypatch.setattr(grid, "window_pass", lambda state, steps: (
        window_pass(state, steps)._replace(
            readout=grid.apply_steps(state, steps).marginals[0])))
    report, _ = run_scenario(scenarios.load_bundled(name))
    values = report["checks"]["grid_crosscheck"]["values"]
    assert [c for c, held in values["conditions"].items() if not held] == [
        "readout_matches_initial_law"]
    assert values["tv_distance"] > 0.05


@pytest.mark.parametrize("model", ["noiseless", "von_neumann"])
@pytest.mark.parametrize("nx, ny", [(256, 128), (128, 256)])
def test_rectangular_grid_readout_meets_its_law(tmp_path, capsys, model, nx,
                                                ny):
    # Both axes span one box, so the readout and the law are compared at
    # the lattice points the two axes share, with no half-cell offset.  The
    # box is the automatic one: a set half_width lets mass wrap.
    body = (f"name: rect\nmodel: {model}\nchecks: [grid_crosscheck]\n"
            f"grid: {{nx: {nx}, ny: {ny}}}\nobject: {PACKET}\n"
            f"probe: {PACKET}\n")
    assert main(["run", _write(tmp_path, body), "--format", "json"]) == 0
    check = json.loads(capsys.readouterr().out)["checks"]["grid_crosscheck"]
    assert check["passed"]
    assert check["values"]["tv_distance"] <= 1e-14


def test_runs_without_scipy():
    # numpy is the only numeric dependency at run time: the born check
    # (KS quantile and normal CDF) and the FFT grid load no scipy module.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from backaction import cli\n"
            "status = cli.main(['run', 'noiseless-violation',"
            " 'grid-crosscheck-gaussian'])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(status, loaded, file=sys.stderr)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stderr.splitlines()[-1] == "0 []", run.stderr


# Values no scenario node should take, each in place of one node or of a
# whole section.
HOSTILE = (None, [], {}, "hostile", True, 1e308, -1e308, 1e-320,
           math.nan, math.inf, 10 ** 400, 2 ** 62, sys.maxsize, 0, -1)


def _fuzz_bases():
    """Raw mappings of the gallery and EXTRA scenarios, grids at 64^2."""
    bases = [yaml.load((scenarios._gallery_root() / f"{name}.yaml")
                       .read_text(encoding="utf-8"),
                       Loader=scenarios._ScenarioLoader)
             for name in scenarios.bundled_names()]
    bases += [yaml.safe_load(f"name: {name}\n" + body)
              for name, body in EXTRA.items()]
    for base in bases:
        if "grid" in base:  # small enough that the grid route runs
            base["grid"].update(nx=64, ny=64)
    return bases


def _node_paths(node, path=()):
    """Path of every node under node, node itself first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _node_paths(child, (*path, key))


def _replaced(node, path, value):
    if not path:
        return value
    node = copy.deepcopy(node)
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


def test_hostile_values_exit_cleanly(tmp_path, capsys, monkeypatch):
    # Any node of a working scenario, or a whole section, replaced by a
    # hostile value: the run exits 0, 1 or 2, exit 2 prints one line, and
    # no exception escapes main.  No case may allocate big: the grid is
    # refused above 128^2 cells and the born samples above 10^6, with the
    # MemoryError a host would raise.  A count numpy cannot shape at all
    # raises numpy's own ValueError first, as the real draw would.
    init_grid, sample_outcomes = grid.init_grid, states.sample_outcomes

    def small_grid(*args, nx=grid.DEFAULT_POINTS, ny=grid.DEFAULT_POINTS,
                   **kwargs):
        if nx * ny > 128 ** 2:
            raise MemoryError(f"Unable to allocate a {nx} x {ny} grid")
        return init_grid(*args, nx=nx, ny=ny, **kwargs)

    def few_samples(distribution, count, seed):
        if count > 10 ** 6:
            np.broadcast_to(0.0, (count,))  # numpy's size check, no memory
            raise MemoryError(f"Unable to allocate {count} samples")
        return sample_outcomes(distribution, count, seed)

    monkeypatch.setattr(grid, "init_grid", small_grid)
    monkeypatch.setattr(states, "sample_outcomes", few_samples)
    bases = _fuzz_bases()
    path = tmp_path / "fuzz.yaml"

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(data=st.data())
    def run(data):
        base = data.draw(st.sampled_from(bases))
        node = data.draw(st.sampled_from(list(_node_paths(base))))
        path.write_text(yaml.safe_dump(_replaced(
            base, node, data.draw(st.sampled_from(HOSTILE)))),
            encoding="utf-8")
        status = main(["run", str(path)])
        captured = capsys.readouterr()
        assert status in (0, 1, 2)
        if status == 2:
            assert len(captured.err.splitlines()) == 1

    run()


# A superposition's moments are a closed form over pairs of packets; each
# value overflows (or, for weights, underflows) some step of it, which load
# refuses in one line.  The first packet is {sigma_x: 1.0, mean_x: -1.25}
# with the given weight.
@pytest.mark.parametrize("weight, component, names", [
    ("1.0", "{sigma_x: 1.0, mean_x: 1.25, weight: 1.0e308}",
     "weights (1, 1e+308) overflow"),
    ("1.0e-320", "{sigma_x: 1.0, mean_x: 1.25, weight: 1.0e-320}",
     "weights (1e-320, 1e-320) make it vanish: norm 0"),
    ("1.0", "{sigma_x: 1.0, mean_x: 1.25, mean_p: 1.0e300}", ""),
    ("1.0", "{sigma_x: 1.0e-300, mean_x: 1.25}", "sigma_x = 1e-300"),
    ("1.0", "{sigma_x: 1.0e300, mean_x: 1.25}", "sigma_x = 1e+300"),
    ("1.0", "{sigma_x: 1.0, mean_x: 1.0e200}", ""),
], ids=["weight", "vanishing-weights", "mean_p", "narrow", "wide", "far"])
def test_hostile_superposition_values_exit_cleanly(tmp_path, capsys, weight,
                                                   component, names):
    path = _write(tmp_path, f"""\
        name: hostile
        model: noiseless
        checks: [verdict]
        object:
          kind: superposition
          components: [{{sigma_x: 1.0, mean_x: -1.25, weight: {weight}}},
                       {component}]
        probe: {{sigma_x: 0.5, sigma_p: 1.0}}
        """)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning escapes main
        line = _exits_two(capsys, ["run", path])
    assert ".object: " in line and names in line


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
