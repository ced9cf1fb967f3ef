"""``gallery``: the nine bundled scenarios, run as ``backaction run`` runs them.

One op loads one bundled scenario, replaces its seed with the pass seed,
runs every check through ``cli.run_scenario`` and renders the report as
JSON and as verbose text.  A pass runs all nine scenarios with one seed.
"""

import itertools
import json
from dataclasses import replace

import numpy as np

NAMES = (
    "bk-refutation-sweep",
    "grid-crosscheck-bimodal",
    "grid-crosscheck-gaussian",
    "noiseless-tradeoff",
    "noiseless-violation",
    "realization-identity",
    "repeatability-sigma-y",
    "sql-refutation-sweep",
    "von-neumann-bound",
)

# The seed only drives the ``born`` check of noiseless-violation: a
# Kolmogorov-Smirnov test of exact samples at significance 0.01, which by
# design rejects about 1 seed in 100 although the program is right.  These
# are the 11 seeds in [0, 1024) it rejects; pass seeds are drawn from the
# other 1013, so a failed op means the program changed.
KS_REJECTED_SEEDS = frozenset({30, 450, 563, 567, 614, 670, 792, 948, 985,
                               1006, 1018})
PASS_SEEDS = np.array([s for s in range(1024) if s not in KS_REJECTED_SEEDS])

TEXT_PASS = "  overall           PASS\n"


class Gallery:
    cycle = len(NAMES)

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            pass_seed = int(rng.choice(PASS_SEEDS))
            yield from zip(NAMES, itertools.repeat(pass_seed))

    def run(self, call, op):
        name, pass_seed = op
        scenario = replace(call("scenarios.load_bundled", name), seed=pass_seed)
        report, _ = call("cli.run_scenario", scenario, tag=name)
        return (scenario, report,
                call("cli.render_json", report),
                call("cli.render_text", report, verbose=True))

    def check(self, op, out):
        """Names of the conditions the op's outputs fail."""
        name, pass_seed = op
        _, report, as_json, as_text = out
        conditions = {
            "report_passed": report["passed"] is True,
            "report_names_scenario": report["scenario"] == name,
            "report_carries_pass_seed": report["seed"] == pass_seed,
            "json_passed": json.loads(as_json)["passed"] is True,
            "text_passed": as_text.endswith(TEXT_PASS),
        }
        return [key for key, ok in conditions.items() if not ok]

    def geometry(self, op, out):
        scenario, report = out[0], out[1]
        check = report["checks"].get("grid_crosscheck")
        if check is None:
            return None
        return (scenario.grid_params.nx, check["values"]["half_width"])
