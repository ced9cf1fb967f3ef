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
import sys
from pathlib import Path

import numpy as np

from . import canonical, cascade, grid, measurement, scenarios, states
from .scenarios import DEFAULT_TOLERANCES, ConfigError


def _prep_size(sc):
    """Largest |mean| or spread of the object and probe preparations.

    Moment-route figures carry rounding in proportion to the means and
    spreads they are built from, so the ``exact`` comparisons scale by this
    factor: a far-off-centre preparation does not fail on rounding, and one
    far below unit scale gets no absolute slack to pass on.
    """
    return max(max(abs(s.mean_x), abs(s.mean_p), s.sigma_x, s.sigma_p)
               for s in (*(s for _, s in sc.object_prep), sc.probe_spec))


def _verdict_check(sc, tols):
    report = measurement.heisenberg_verdict(
        sc.model, sc.object_state, sc.probe_state, tol=tols["exact"])
    values = {**vars(report), "product_over_bound": states._finite(
        report.product / report.bound, "product_over_bound")}
    if sc.model.exact_readout:
        # epsilon is rounding times the preparation's size, and eta is of
        # that size too, so the product's slack takes the factor twice.
        size = _prep_size(sc)
        conditions = {
            "epsilon_zero": report.epsilon <= tols["exact"] * size,
            "product_zero": report.product <= tols["exact"] * size * size,
            "tradeoff_meets_bound": report.tradeoff_meets_bound}
        note = ("readout is exact and the noise-disturbance product sits at "
                "zero, below the hbar/2 bound; the spread-disturbance "
                "trade-off holds instead")
    elif sc.model.reference is not None:  # built in with noise: meets hbar/2
        conditions = {"product_meets_bound": report.product_meets_bound}
        note = sc.model.reference.notes["verdict"]
    else:
        conditions = {}
        note = "custom model: figures reported, no reference behavior"
    return {"conditions": conditions, "values": values, "note": note}


def _robertson_check(sc, tols):
    values = {label: states.robertson_check(
        state, canonical.position(state.system, 0),
        canonical.momentum(state.system, 0), tol=tols["exact"])._asdict()
        for label, state in (("object", sc.object_state),
                             ("probe", sc.probe_state))}
    return {"conditions": {label: v["passed"] for label, v in values.items()},
            "values": values,
            "note": "preparation spreads obey sigma(x) sigma(p) >= hbar/2"}


def _born_check(sc, tols):
    joint = states.product(sc.object_state, sc.probe_state)
    outcome = states.observable_distribution(joint, sc.model.readout)
    reference = states.observable_distribution(joint, sc.model.measured)
    # KS tests the shape about zero, since absolute samples far off centre
    # are quantized to the float spacing of the mean; the means are
    # compared at the rounding of the preparation's size.
    samples = states.sample_outcomes(states.ScalarDistribution(
        0.0, outcome.variance), sc.born_samples, sc.seed)
    result = states.born_check(
        samples, states.ScalarDistribution(0.0, reference.variance),
        alpha=tols["ks_alpha"])
    mean_gap = abs(outcome.mean - reference.mean)
    return {
        "conditions": {"ks_shape": result.passed,
                       "means_agree": mean_gap <= tols["exact"] * _prep_size(sc)},
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
        "note": ("sampled readout statistics against the object position "
                 "distribution"),
    }


def _repeatability_check(sc, tols):
    deviation = cascade.repeatability_deviation(cascade.CascadeScenario(
        sc.model, sc.object_state, sc.probe_state))
    spec, reference = sc.probe_spec, sc.model.reference
    values = {"deviation": deviation, "sigma_y": spec.sigma_x,
              "closed_form": None, "alpha": None, "alpha_repeatable": None}
    if reference is None:
        return {"conditions": {}, "values": values,
                "note": "custom model: deviation reported, no reference behavior"}
    closed = reference.deviation(spec.sigma_x, spec.mean_x)
    exact = tols["exact"] * _prep_size(sc)
    alpha = closed + exact  # |deviation - closed| <= exact implies <= alpha
    values.update(closed_form=closed, alpha=alpha,
                  alpha_repeatable=deviation <= alpha)
    return {"conditions": {
                "deviation_matches_closed_form": abs(deviation - closed) <= exact},
            "values": values, "note": reference.notes["repeatability"]}


def _realization_check(sc, tols):
    residual = measurement.realization_residual(sc.model)
    swapped = measurement.realization_residual(sc.model, swapped=True)
    miss = 0.1  # the least a load-bearing order's swap must miss by
    return {
        "conditions": {"residual_zero": residual <= tols["exact"],
                       "swapped_misses": swapped > miss},
        "values": {"residual": residual, "swapped_residual": swapped,
                   "swapped_residual_floor": miss},
        "note": sc.model.reference.notes["realization"],
    }


def _limit_sweep_check(sc, tols):
    exact, hbar, kind = tols["exact"], sc.model.system.hbar, sc.sweep.kind
    points_of, columns = scenarios.SWEEPS[kind]
    ks = list(range(sc.sweep.k_min, sc.sweep.k_max + 1))
    rows = []
    for k, point in zip(ks, points_of(sc.model, [2.0 ** -k for k in ks])):
        values = {"k": k, **vars(point.report), **point._asdict()}
        rows.append({key: values[key] for key in columns})
    note, closed_forms = sc.model.reference.sweeps[kind]
    conditions = {}
    for name, form in closed_forms.items():
        matches = (form(row, hbar) for row in rows)
        conditions[name] = all(abs(value - closed) <= exact * scale
                               for value, closed, scale in matches)

    def write(path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(
                [columns] + [[row[key] for key in columns] for row in rows])

    return {
        "conditions": conditions,
        "values": {"kind": kind, "conditions": conditions, "points": rows},
        "note": note,
        "artifact_writers": {f"{sc.name}.csv": write},
    }


def _grid_crosscheck(sc, tols):
    hbar, model, state = sc.model.system.hbar, sc.model, sc.grid_state
    window = grid.window_pass(state, model.steps)
    eps_grid, eta_grid = window.epsilon, hbar * window.eta

    joint = states.product(sc.object_state, sc.probe_state)
    eps_moment = measurement.joint_noise(model, joint)
    eta_moment = measurement.joint_disturbance(model, joint)

    values = {
        "epsilon_grid": eps_grid,
        "epsilon_moment": eps_moment,
        "eta_grid": eta_grid,
        "eta_moment": eta_moment,
        "epsilon_gap": abs(eps_grid - eps_moment),
        "eta_gap": abs(eta_grid - eta_moment),
        "half_width": state.lx,
        "boundary_mass": state.shell_mass,
        "boundary_mass_max": window.boundary_mass_max,
        "norm_drift": window.norm_drift,
    }
    conditions = {f"{q}_routes_agree": values[f"{q}_gap"] <= tols["grid_match"]
                  for q in ("epsilon", "eta")}
    if model.exact_readout:
        conditions["epsilon_grid_vanishes"] = eps_grid <= tols["grid_epsilon"]
    # The readout is y(t + dt) = a x + b y, and init_grid's state is the
    # product phi(x) xi(y), so its law is the marginals' images convolved,
    # at the m lattice points both axes share on the box [-L, L).
    m = min(state.nx, state.ny)
    a, b = np.rint(model.readout.coeffs[[0, 2]]).astype(int)
    px, py, out = (p[::p.size // m] * (p.size // m)
                   for p in (*state.marginals, window.readout))
    law = np.convolve(np.bincount(a * np.arange(m), px),
                      np.bincount(b * np.arange(m), py))[(a + b - 1) * m // 2:]
    values["tv_distance"] = tv = grid.total_variation(out, law[:m])
    conditions["readout_matches_initial_law"] = tv <= tols["tv"]
    values["conditions"] = conditions
    return {"conditions": conditions, "values": values,
            "note": ("wavefunction-level shears against the moment engine, "
                     "two independent routes to the same figures")}


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

    Each runner returns its named ``conditions``; a check passes when all
    of them hold, and this is the one place that decides it.  Returns
    (report, artifact_writers): the JSON-ready report dict and a mapping of
    artifact filename to a callable that writes it.
    """
    tols = {**DEFAULT_TOLERANCES, **scenario.tolerances, **(tol_overrides or {})}
    checks = {}
    writers = {}
    for kind in scenario.checks:
        with np.errstate(over="raise"):  # an overflow exits 2, not inf
            outcome = _RUNNERS[kind](scenario, tols)
        writers.update(outcome.pop("artifact_writers", {}))
        checks[kind] = {"passed": all(outcome.pop("conditions").values()),
                        **outcome}
    report = {
        "scenario": scenario.name,
        "model": scenario.model.name,
        "hbar": scenario.model.system.hbar,
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
            lines.extend(_value_lines("", check["values"]))
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
        try:
            overrides[key] = float(raw)
        except ValueError:
            raise ConfigError(f"--tol {key}: {raw!r} is not a number") from None
    return scenarios._tolerances(overrides, "--tol")


def _load_target(target):
    path = Path(target)
    if path.suffix in (".yaml", ".yml") or path.exists():
        return scenarios.load_scenario(path)
    return scenarios.load_bundled(target)


def _run_command(args):
    overrides = _parse_tol_overrides(args.tol)
    out_dir = None if args.out_dir is None else Path(args.out_dir)
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out-dir: {exc}") from exc
    all_passed = True
    outputs, names = [], set()
    for target in args.targets:
        scenario = _load_target(target)
        if out_dir is not None and scenario.name in names:
            raise ConfigError(
                f"--out-dir: {target}: scenario name {scenario.name!r} is "
                "already taken by an earlier target, whose reports it would "
                "overwrite")
        names.add(scenario.name)
        if args.seed is not None:
            scenario = scenarios.with_seed(scenario, args.seed)
        report, writers = run_scenario(scenario, overrides)
        all_passed = all_passed and report["passed"]
        if args.fmt == "json":
            outputs.append(render_json(report))
        else:
            outputs.append(render_text(report, verbose=args.verbose > 0))
        if out_dir is not None:
            try:
                if args.fmt in ("json", "both"):
                    (out_dir / f"{scenario.name}.report.json").write_text(
                        render_json(report), encoding="utf-8")
                if args.fmt in ("text", "both"):
                    (out_dir / f"{scenario.name}.report.txt").write_text(
                        render_text(report, verbose=True), encoding="utf-8")
                for filename, write in writers.items():
                    write(out_dir / filename)
            except OSError as exc:
                raise ConfigError(f"--out-dir: {exc}") from exc
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
    except (ConfigError, states.PhysicalityError, grid.BoundaryMassError,
            ArithmeticError, MemoryError) as exc:
        name = "" if isinstance(exc, ConfigError) else f"{type(exc).__name__}: "
        print(f"error: {name}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
