"""Reports stay byte-identical to the golden copies under ``golden/``.

The test runs ``backaction run <all bundled> --out-dir D --format both``,
four sharpening sweeps the gallery does not cover (``sharpen_pointer``
and ``sharpen_momentum`` on the noiseless and von Neumann models, k from 0
to 40) and the scenarios of ``EXTRA``, for report branches and objects the
gallery never reaches.  It keeps the stdout of each run and every file
written, as ``golden/<run>/<file>``, and compares them byte for byte with
the committed copies, over the same set of names.

A change that alters reports on purpose rewrites the golden files with
``PYTHONPATH=src python tests/test_gallery_reports.py``, which also
removes stale ones; the PR's diff then shows every value that moved.
"""

import difflib
import io
import shutil
import tempfile
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

from backaction.cli import main
from backaction.scenarios import bundled_names

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEPS = [(kind, model) for kind in ("sharpen_momentum", "sharpen_pointer")
          for model in ("noiseless", "von_neumann")]

SWEEP = """\
    name: {kind}-{model}
    model: {model}
    checks: [limit_sweep]
    sweep: {{kind: {kind}, k_min: 0, k_max: 40}}
    """

# An off-centre pointer on both built-in models (the noiseless deviation
# is hypot(sigma_y, mean_y)), and a custom model with no reference.
PROBE = "probe: {sigma_x: 0.5, sigma_p: 1.0, mean_x: 0.7}\n"
PREPS = "object: {sigma_x: 1.0, sigma_p: 0.5}\n" + PROBE

# Two overlapping packets, one correlated and moving: interference shapes
# every moment, so the closed form's cross terms carry weight.
SUPERPOSITION = (
    "object:\n"
    "  kind: superposition\n"
    "  components:\n"
    "    - {weight: 1.0, sigma_x: 1.0, mean_x: -1.25, correlation: 0.4,\n"
    "       mean_p: 0.3}\n"
    "    - {weight: 0.7, sigma_x: 1.0, mean_x: 1.25}\n" + PROBE)

EXTRA = {
    "von-neumann-offset-probe": (
        "model: von_neumann\n"
        "checks: [verdict, robertson, repeatability]\n" + PREPS),
    "noiseless-offset-probe": (
        "model: noiseless\nchecks: [verdict, repeatability]\n" + PREPS),
    "custom-no-reference": (
        "model: custom\n"
        "checks: [verdict, robertson, repeatability]\n"
        "interaction: {terms: [{coefficient: 1.0, first: x, second: py},\n"
        "                      {coefficient: 0.3, first: px, second: y}]}\n"
        "object: {sigma_x: 1.0, sigma_p: 0.5}\n"
        "probe: {sigma_x: 0.5, sigma_p: 1.0}\n"),
    "noiseless-superposition": (
        "model: noiseless\n"
        "checks: [verdict, robertson, repeatability]\n" + SUPERPOSITION),
    "von-neumann-superposition": (
        "model: von_neumann\n"
        "checks: [verdict, robertson, repeatability]\n" + SUPERPOSITION),
    # The two axes hold different lattices on one box.
    "noiseless-rectangular-grid": (
        "model: noiseless\nchecks: [grid_crosscheck]\n"
        "grid: {nx: 256, ny: 128}\n" + PREPS),
}


def _run(argv, out_dir):
    """Run argv with its output in out_dir; map each output name to its bytes."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        main([*argv, "--out-dir", str(out_dir), "--format", "both"])
    outputs = {"stdout": stdout.getvalue().encode("utf-8")}
    outputs.update((path.name, path.read_bytes())
                   for path in sorted(out_dir.iterdir()))
    return {f"{out_dir.name}/{name}": data for name, data in outputs.items()}


def report_outputs(tmp_path):
    """Every output of every run, keyed ``<run>/<file>``."""
    outputs = _run(["run", *bundled_names()], tmp_path / "gallery")
    bodies = {f"{kind}-{model}": textwrap.dedent(SWEEP.format(
        kind=kind, model=model)) for kind, model in SWEEPS}
    bodies.update((name, f"name: {name}\n" + body)
                  for name, body in EXTRA.items())
    for name, body in bodies.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(body, encoding="utf-8")
        outputs.update(_run(["run", str(path)], tmp_path / name))
    return outputs


def _golden():
    return {path.relative_to(GOLDEN).as_posix(): path.read_bytes()
            for path in sorted(GOLDEN.rglob("*")) if path.is_file()}


def test_reports_match_the_golden_files(tmp_path):
    outputs, golden = report_outputs(tmp_path), _golden()
    assert sorted(outputs) == sorted(golden), "output names differ"
    for name in sorted(outputs):
        if outputs[name] != golden[name]:
            diff = difflib.unified_diff(
                golden[name].decode("utf-8").splitlines(keepends=True),
                outputs[name].decode("utf-8").splitlines(keepends=True),
                f"golden/{name}", f"run/{name}")
            raise AssertionError(
                f"{name} differs from its golden copy:\n{''.join(diff)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = report_outputs(Path(tmp))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, data in outputs.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(outputs)} golden files to {GOLDEN}")
