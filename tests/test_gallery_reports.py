"""Reports stay byte-identical: a sha256 manifest of every report written.

The test runs ``backaction run <all bundled> --out-dir D --format both``,
four sharpening sweeps the gallery does not cover (``sharpen_pointer``
and ``sharpen_momentum`` on the noiseless and von Neumann models, k from 0
to 40) and three scenarios for report branches the gallery never reaches
(``EXTRA``).  It hashes the stdout of each run and every file written,
and compares them with ``gallery_reports.sha256``.

A change that alters reports on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_gallery_reports.py`` and lists the
changed files in CHANGES.md.
"""

import hashlib
import io
import tempfile
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

from backaction.cli import main
from backaction.scenarios import bundled_names

MANIFEST = Path(__file__).resolve().parent / "gallery_reports.sha256"

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
PREPS = ("object: {sigma_x: 1.0, sigma_p: 0.5}\n"
         "probe: {sigma_x: 0.5, sigma_p: 1.0, mean_x: 0.7}\n")

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
}


def _run(argv, out_dir):
    """Run argv with its output in out_dir; map each output name to its sha256."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        main([*argv, "--out-dir", str(out_dir), "--format", "both"])
    digests = {"stdout": stdout.getvalue().encode("utf-8")}
    digests.update((path.name, path.read_bytes())
                   for path in sorted(out_dir.iterdir()))
    return {f"{out_dir.name}/{name}": hashlib.sha256(data).hexdigest()
            for name, data in digests.items()}


def report_digests(tmp_path):
    digests = _run(["run", *bundled_names()], tmp_path / "gallery")
    bodies = {f"{kind}-{model}": textwrap.dedent(SWEEP.format(
        kind=kind, model=model)) for kind, model in SWEEPS}
    bodies.update((name, f"name: {name}\n" + body)
                  for name, body in EXTRA.items())
    for name, body in bodies.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(body, encoding="utf-8")
        digests.update(_run(["run", str(path)], tmp_path / name))
    return digests


def _read_manifest():
    pairs = (line.split() for line in MANIFEST.read_text("utf-8").splitlines())
    return {name: digest for digest, name in pairs}


def test_reports_match_the_manifest(tmp_path):
    digests = report_digests(tmp_path)
    expected = _read_manifest()
    differ = sorted(name for name in set(digests) | set(expected)
                    if digests.get(name) != expected.get(name))
    assert not differ, f"reports differ from the manifest: {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = report_digests(Path(tmp))
    MANIFEST.write_text("".join(f"{digest}  {name}\n"
                                for name, digest in sorted(digests.items())),
                        encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST}")
