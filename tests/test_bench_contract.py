"""The benchmark's contract with the program.

``bench/`` calls the program only through the names listed under ``api``
in ``bench/spec.json``.  This test resolves that list and runs the first
two ops of every workload through the workload's own check, so a refactor
that drops or reshapes a name the benchmark calls fails here, not only when
the benchmark runs.  Grid op 0 is a von Neumann op and op 1 a noiseless
one, which alone calls ``output_histogram`` and ``position_marginal``.
The first two ``moments`` ops are scalar ones, so the first sweep op of
each model, which builds a ``CascadeScenario`` per point, runs too.  It
reads ``bench/`` and changes nothing there.
"""

import itertools
import json
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_first_two_ops_of_each_workload_pass_their_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import program
    import workloads

    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    api = program.resolve(spec["api"])
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(api, 0)
        for index, op in enumerate(itertools.islice(workload.inputs(), 2)):
            out = workload.run(program.Calls(api, traced=False), op)
            assert workload.check(op, out) == [], (name, index)


def test_first_sweep_op_of_each_model_passes_its_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import program
    from workloads.moments import SWEEP_EVERY, Moments

    api = program.resolve(
        json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))["api"])
    workload = Moments(api, 0)
    ops = list(itertools.islice(workload.inputs(), 2 * SWEEP_EVERY))
    sweeps = [ops[SWEEP_EVERY - 1], ops[2 * SWEEP_EVERY - 1]]
    assert sorted(op.model for op in sweeps) == ["noiseless", "von_neumann"]
    for op in sweeps:
        out = workload.run(program.Calls(api, traced=False), op)
        assert workload.check(op, out) == [], op.model


def test_gallery_seed_lists_match_the_born_check(monkeypatch):
    # The gallery workload draws its pass seeds from outside
    # KS_REJECTED_SEEDS; a change to the draws or the KS test that moves
    # that set would fail its ops.  101 is noiseless-violation's own seed.
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads.gallery import KS_REJECTED_SEEDS

    from backaction import cli, scenarios

    born_only = replace(scenarios.load_bundled("noiseless-violation"),
                        checks=("born",))
    for seed in sorted(KS_REJECTED_SEEDS) + [101]:
        report, _ = cli.run_scenario(replace(born_only, seed=seed))
        assert report["passed"] == (seed == 101), seed
