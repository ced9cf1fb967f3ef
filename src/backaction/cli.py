"""Scenario runner and report writer.

``backaction run <scenario>`` executes every check a scenario asks for and
emits one report per scenario.  Reports are deterministic: same scenario,
seed, and tolerances give byte-identical output (no timestamps, no paths,
float formatting via round-trip repr).  Exit status is 0 only when every
check of every target passed, 1 when any check failed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import canonical, cascade, grid, measurement, scenarios, states
from .scenarios import DEFAULT_TOLERANCES, ConfigError


def _prep_size(sc):
    """max(1, largest |mean| or spread of the object and probe preparations).

    Moment-route figures carry rounding in proportion to the means and
    spreads they are built from, so the ``exact`` comparisons scale by this
    factor instead of failing a far-off-centre preparation on rounding.
    """
    return max(1.0, *(max(abs(s.mean_x), abs(s.mean_p), s.sigma_x, s.sigma_p)
                      for s in (sc.object_prep.spec, sc.probe_spec)))


def _verdict_check(sc, model, tols):
    report = measurement.heisenberg_verdict(
        model, scenarios.object_state(sc), scenarios.probe_state(sc),
        tol=tols["bound"])
    values = {
        "epsilon": report.epsilon,
        "eta": report.eta,
        "product": report.product,
        "bound": report.bound,
        "product_over_bound": report.product / report.bound,
        "product_meets_bound": report.satisfied,
        "sigma_x": report.sigma_x,
        "tradeoff": report.tradeoff,
        "tradeoff_meets_bound": report.tradeoff_satisfied,
    }
    if model.name == "noiseless":
        expected = {"epsilon": 0.0, "product": 0.0,
                    "tradeoff_at_least": report.bound}
        # epsilon is rounding times the preparation's size, and eta is of
        # that size too, so the product's slack takes the factor twice.
        size = _prep_size(sc)
        passed = (report.epsilon <= tols["exact"] * size
                  and report.product <= tols["exact"] * size * size
                  and report.tradeoff_satisfied)
        note = ("readout is exact and the noise-disturbance product sits at "
                "zero, below the hbar/2 bound; the spread-disturbance "
                "trade-off holds instead")
    elif model.name == "von_neumann":
        expected = {"product_at_least": report.bound}
        passed = report.satisfied
        note = "stretch coupling obeys the hbar/2 noise-disturbance bound"
    else:
        expected = {}
        passed = True
        note = "custom model: figures reported, no reference behavior"
    return {"passed": passed, "values": values, "expected": expected,
            "note": note}


def _robertson_check(sc, model, tols):
    values = {}
    passed = True
    for label, state in (("object", scenarios.object_state(sc)),
                         ("probe", scenarios.probe_state(sc))):
        result = states.robertson_check(
            state,
            canonical.position(state.system, 0),
            canonical.momentum(state.system, 0),
            tol=tols["bound"])
        values[label] = {"lhs": result.lhs, "bound": result.bound,
                         "passed": result.passed}
        passed = passed and result.passed
    return {"passed": passed, "values": values,
            "expected": {"lhs_at_least": sc.hbar / 2.0},
            "note": "preparation spreads obey sigma(x) sigma(p) >= hbar/2"}


def _born_check(sc, model, tols):
    obj = scenarios.object_state(sc)
    joint = states.product(obj, scenarios.probe_state(sc))
    readout = canonical.heisenberg_apply(model.endpoint, model.probe_obs)
    outcome = states.observable_distribution(joint, readout)
    reference = states.observable_distribution(
        obj, canonical.position(obj.system, 0))
    samples = states.sample_outcomes(outcome, sc.born_samples, sc.seed)
    result = states.born_check(samples, reference, alpha=tols["ks_alpha"])
    return {
        "passed": result.passed,
        "values": {
            "ks_statistic": result.statistic,
            "critical_value": result.critical_value,
            "samples": sc.born_samples,
            "alpha": tols["ks_alpha"],
            "outcome_mean": outcome.mean,
            "outcome_std": outcome.std,
            "reference_mean": reference.mean,
            "reference_std": reference.std,
        },
        "expected": {"ks_statistic_below": result.critical_value},
        "note": ("sampled readout statistics against the object position "
                 "distribution"),
    }


def _repeatability_check(sc, model, tols):
    obj = scenarios.object_state(sc)
    probe = scenarios.probe_state(sc)
    scenario = cascade.CascadeScenario(model, obj, probe)
    deviation = cascade.repeatability_deviation(scenario)
    spec = sc.probe_spec
    values = {"deviation": deviation, "sigma_y": spec.sigma_x}
    exact = tols["exact"] * _prep_size(sc)
    if model.name == "noiseless":
        closed = math.hypot(spec.sigma_x, spec.mean_x)
        alpha = closed + exact
        repeatable = cascade.is_alpha_repeatable(scenario, alpha)
        passed = abs(deviation - closed) <= exact and repeatable
        note = ("second readout reproduces the first within the pointer "
                "spread: sigma(y)-approximate repeatability")
    elif model.name == "von_neumann":
        closed = math.sqrt(2.0) * spec.sigma_x
        alpha = closed + exact
        repeatable = cascade.is_alpha_repeatable(scenario, alpha)
        passed = abs(deviation - closed) <= exact
        note = ("deviation carries both pointer spreads; no better than "
                "sqrt(2) sigma(y)")
    else:
        closed = None
        alpha = None
        repeatable = None
        passed = True
        note = "custom model: deviation reported, no reference behavior"
    values.update({"closed_form": closed, "alpha": alpha,
                   "alpha_repeatable": repeatable})
    expected = {} if closed is None else {"deviation": closed}
    return {"passed": passed, "values": values, "expected": expected,
            "note": note}


def _realization_check(sc, model, tols):
    residual = measurement.realization_residual(model)
    swapped = measurement.realization_residual(model, swapped=True)
    passed = residual <= tols["exact"] and swapped > 0.1
    return {
        "passed": passed,
        "values": {"residual": residual, "swapped_residual": swapped},
        "expected": {"residual": 0.0, "swapped_residual_above": 0.1},
        "note": ("window factors into the back-action-evading shear followed "
                 "by the stretch shear; the swapped order must miss"),
    }


def _monotone(xs, decreasing):
    pairs = zip(xs, xs[1:])
    if decreasing:
        return all(b < a for a, b in pairs)
    return all(b > a for a, b in pairs)


def _sharpen_momentum_sweep(sc, model, tols):
    hbar = sc.hbar
    ks = list(range(sc.sweep.k_min, sc.sweep.k_max + 1))
    points = measurement.limit_sweep(model, [2.0 ** -k for k in ks])
    rows = []
    for k, point in zip(ks, points):
        r = point.report
        rows.append({"k": k, "sigma_p": point.sigma_p, "epsilon": r.epsilon,
                     "eta": r.eta, "product": r.product,
                     "sigma_x_post": point.sigma_x_post})
    etas = [row["eta"] for row in rows]
    posts = [row["sigma_x_post"] for row in rows]
    conditions = {}
    if model.name == "noiseless":
        conditions["epsilon_zero"] = all(
            row["epsilon"] <= tols["exact"] for row in rows)
        conditions["eta_matches_sqrt2_sigma_p"] = all(
            abs(row["eta"] - math.sqrt(2.0) * row["sigma_p"]) <= tols["exact"]
            for row in rows)
        conditions["eta_decreases"] = _monotone(etas, decreasing=True)
        conditions["sigma_x_post_increases"] = _monotone(posts, decreasing=False)
        conditions["sigma_x_post_matches_closed_form"] = all(
            abs(row["sigma_x_post"]
                - math.sqrt(2.0) * hbar / (2.0 * row["sigma_p"]))
            <= tols["exact"] * max(1.0, row["sigma_x_post"])
            for row in rows)
        note = ("precision is free of the momentum spread: epsilon stays "
                "zero while the kick is paid by the object position spread "
                "afterwards")
    else:
        conditions["product_at_bound"] = all(
            abs(row["product"] - hbar / 2.0) <= tols["exact"] for row in rows)
        note = ("minimum-uncertainty preparations pin the stretch coupling "
                "exactly at the hbar/2 bound at every sharpness")
    header = ["k", "sigma_p", "epsilon", "eta", "product", "sigma_x_post"]
    return rows, header, conditions, note


def _sharpen_pointer_sweep(sc, model, tols):
    ks = list(range(sc.sweep.k_min, sc.sweep.k_max + 1))
    points = cascade.repeatability_sweep(model, [2.0 ** -k for k in ks])
    rows = []
    for k, point in zip(ks, points):
        r = point.report
        rows.append({"k": k, "sigma_y": point.sigma_y,
                     "deviation": point.deviation, "epsilon": r.epsilon,
                     "eta": r.eta})
    devs = [row["deviation"] for row in rows]
    conditions = {"deviation_decreases": _monotone(devs, decreasing=True)}
    if model.name == "noiseless":
        conditions["epsilon_zero"] = all(
            row["epsilon"] <= tols["exact"] for row in rows)
        conditions["deviation_matches_sigma_y"] = all(
            abs(row["deviation"] - row["sigma_y"]) <= tols["exact"]
            for row in rows)
        note = ("repeatability sharpens without limit while the readout "
                "stays exact; there is no residual floor")
    else:
        conditions["deviation_matches_sqrt2_sigma_y"] = all(
            abs(row["deviation"] - math.sqrt(2.0) * row["sigma_y"])
            <= tols["exact"] for row in rows)
        note = "deviation tracks sqrt(2) sigma(y) for the stretch coupling"
    header = ["k", "sigma_y", "deviation", "epsilon", "eta"]
    return rows, header, conditions, note


def _limit_sweep_check(sc, model, tols):
    if sc.sweep.kind == "sharpen_momentum":
        rows, header, conditions, note = _sharpen_momentum_sweep(sc, model, tols)
    else:
        rows, header, conditions, note = _sharpen_pointer_sweep(sc, model, tols)
    filename = f"{sc.name}.csv"
    table = [[row[key] for key in header] for row in rows]

    def write(path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(table)

    return {
        "passed": all(conditions.values()),
        "values": {"kind": sc.sweep.kind, "conditions": conditions,
                   "points": rows},
        "expected": {"all_conditions": True},
        "note": note,
        "artifact_writers": {filename: write},
    }


def _grid_crosscheck(sc, model, tols):
    hbar = sc.hbar
    params = sc.grid_params
    components = [(w, grid.unit_hbar_spec(s, hbar))
                  for w, s in sc.object_prep.components]
    probe_unit = grid.unit_hbar_spec(sc.probe_spec, hbar)
    state = grid.init_grid(
        components, probe_unit, nx=params.nx, ny=params.ny,
        half_width=params.half_width,
        boundary_threshold=params.boundary_threshold)
    eps_grid, eta_unit = grid.grid_noise_disturbance(
        state, model.steps, params.boundary_threshold)
    eta_grid = hbar * eta_unit

    if sc.object_prep.kind == "gaussian":
        joint = states.product(scenarios.object_state(sc),
                               scenarios.probe_state(sc))
    else:
        mean_unit, cov_unit = grid.grid_moments(state)
        scale = np.diag([1.0, hbar, 1.0, hbar])
        joint = states.MomentState(
            canonical.ModeSystem(2, hbar=hbar, labels=("object", "probe")),
            scale @ mean_unit, scale @ cov_unit @ scale)
    eps_moment = measurement.joint_noise(model, joint)
    eta_moment = measurement.joint_disturbance(model, joint)

    conditions = {
        "epsilon_routes_agree":
            abs(eps_grid - eps_moment) <= tols["grid_match"],
        "eta_routes_agree": abs(eta_grid - eta_moment) <= tols["grid_match"],
    }
    values = {
        "epsilon_grid": eps_grid,
        "epsilon_moment": eps_moment,
        "eta_grid": eta_grid,
        "eta_moment": eta_moment,
        "epsilon_gap": abs(eps_grid - eps_moment),
        "eta_gap": abs(eta_grid - eta_moment),
        "half_width": state.lx,
        "boundary_mass": grid.boundary_mass(state),
    }
    if model.name == "noiseless":
        eps_tol = (tols["grid_epsilon"] if sc.object_prep.kind == "gaussian"
                   else tols["grid_epsilon_multi"])
        conditions["epsilon_grid_vanishes"] = eps_grid <= eps_tol
        edges = np.linspace(-state.lx, state.lx, 129)
        hist_out = grid.output_histogram(
            state, model.steps, edges, params.boundary_threshold)
        coords, masses = grid.position_marginal(state, axis=0)
        hist_ref, _ = np.histogram(coords, bins=edges, weights=masses)
        tv = grid.total_variation(hist_out, hist_ref)
        conditions["readout_matches_position_marginal"] = tv <= tols["tv"]
        values["tv_distance"] = tv
    values["conditions"] = conditions
    return {
        "passed": all(conditions.values()),
        "values": values,
        "expected": {"epsilon_gap_below": tols["grid_match"],
                     "eta_gap_below": tols["grid_match"]},
        "note": ("wavefunction-level shears against the moment engine, two "
                 "independent routes to the same figures"),
    }


_RUNNERS = {
    "verdict": _verdict_check,
    "robertson": _robertson_check,
    "born": _born_check,
    "repeatability": _repeatability_check,
    "realization": _realization_check,
    "limit_sweep": _limit_sweep_check,
    "grid_crosscheck": _grid_crosscheck,
}


def run_scenario(scenario, tol_overrides=None):
    """Execute a scenario's checks.

    Returns (report, artifact_writers): the JSON-ready report dict and a
    mapping of artifact filename to a callable that writes it.
    """
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(scenario.tolerances)
    tols.update(tol_overrides or {})
    try:
        model = scenarios.build_model(scenario)
    except ValueError as exc:
        raise ConfigError(f"scenario {scenario.name}: {exc}") from exc
    checks = {}
    writers = {}
    for kind in scenario.checks:
        outcome = _RUNNERS[kind](scenario, model, tols)
        writers.update(outcome.pop("artifact_writers", {}))
        checks[kind] = outcome
    report = {
        "scenario": scenario.name,
        "model": scenario.model,
        "hbar": scenario.hbar,
        "seed": scenario.seed,
        "tolerances": tols,
        "checks": checks,
        "artifacts": sorted(writers),
        "passed": all(c["passed"] for c in checks.values()),
    }
    return report, writers


def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _format_value(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _value_lines(prefix, value):
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            lines.extend(_value_lines(f"{prefix}{key}.", value[key]))
        return lines
    if isinstance(value, list):
        return [f"    {prefix.rstrip('.')} = [{len(value)} rows]"]
    return [f"    {prefix.rstrip('.')} = {_format_value(value)}"]


def render_text(report, verbose=False):
    lines = [
        f"scenario {report['scenario']}  model={report['model']}  "
        f"hbar={_format_value(report['hbar'])}  seed={report['seed']}"
    ]
    for kind, check in report["checks"].items():
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"  {kind:<17} {status}  {check['note']}")
        if verbose:
            for key in sorted(check["values"]):
                lines.extend(_value_lines("", {key: check["values"][key]}))
    if report["artifacts"]:
        lines.append(f"  artifacts: {', '.join(report['artifacts'])}")
    lines.append(f"  overall           {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _parse_tol_overrides(pairs):
    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects KEY=VALUE, got {pair!r}")
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(
                f"--tol: unknown key {key!r}; known: "
                f"{', '.join(sorted(DEFAULT_TOLERANCES))}")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"--tol {key}: {raw!r} is not a number") from None
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--tol {key}: value must be positive and finite")
        overrides[key] = value
    return overrides


def _load_target(target):
    path = Path(target)
    if path.suffix in (".yaml", ".yml") or path.exists():
        return scenarios.load_scenario(path)
    return scenarios.load_bundled(target)


def _run_command(args):
    overrides = _parse_tol_overrides(args.tol)
    out_dir = args.out_dir
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    all_passed = True
    outputs = []
    for target in args.targets:
        scenario = _load_target(target)
        if args.seed is not None:
            scenario = scenarios.with_seed(scenario, args.seed)
        report, writers = run_scenario(scenario, overrides)
        all_passed = all_passed and report["passed"]
        if args.fmt == "json":
            outputs.append(render_json(report))
        else:
            outputs.append(render_text(report, verbose=args.verbose > 0))
        if out_dir is not None:
            if args.fmt in ("json", "both"):
                (out_dir / f"{scenario.name}.report.json").write_text(
                    render_json(report), encoding="utf-8")
            if args.fmt in ("text", "both"):
                (out_dir / f"{scenario.name}.report.txt").write_text(
                    render_text(report, verbose=True), encoding="utf-8")
            for filename, write in writers.items():
                write(out_dir / filename)
    sys.stdout.write("".join(outputs))
    return 0 if all_passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="backaction",
        description=("Run measurement-model scenarios: exact noise and "
                     "disturbance figures, repeatability, and "
                     "wavefunction-level cross-checks."))
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="run one or more scenarios and report pass/fail")
    run_parser.add_argument(
        "targets", nargs="+", metavar="SCENARIO",
        help="bundled scenario name or path to a scenario YAML file")
    run_parser.add_argument(
        "--out-dir", default=None,
        help="directory for report files and CSV artifacts")
    run_parser.add_argument(
        "--format", dest="fmt", choices=("text", "json", "both"),
        default="text", help="report format (default: text)")
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override every scenario's sampling seed")
    run_parser.add_argument(
        "--tol", action="append", default=[], metavar="KEY=VALUE",
        help="override a tolerance, e.g. --tol grid_match=1e-5 (repeatable)")
    run_parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="include per-check values in text output")

    sub.add_parser("list", help="list bundled scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name in scenarios.bundled_names():
                print(name)
            return 0
        return _run_command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (states.PhysicalityError, grid.BoundaryMassError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
