"""Scenario files: what to prepare, which model to run, what to check.

A scenario is one YAML mapping.  Validation is strict: unknown keys are
rejected with the offending key named, every cross-field requirement
(e.g. a sweep section without the sweep check) is an error at load time,
and inadmissible preparations fail here rather than deep inside a run.
Loading also builds the model and the starting states the checks read,
so an input that cannot be built is refused here too.

The package ships a gallery of ready-made scenarios; ``bundled_names`` and
``load_bundled`` expose them by name.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from typing import Callable, NamedTuple

import yaml

from . import cascade, grid, measurement, states
from .states import GaussianSpec

# Model names; a custom model is built from the 'interaction' section.
MODELS = {"von_neumann": measurement.von_neumann_model,
          "noiseless": measurement.noiseless_model, "custom": None}


class CheckNeeds(NamedTuple):
    """What a check needs from its scenario when it loads."""

    section: str | None  # the section only this check reads
    preps: bool  # reads the object and probe preparations
    accepts: Callable = lambda model: True  # the models it means anything for
    lacks: str = ""  # what the models it refuses lack


# The born reference is the object's position distribution, which only an
# exact (epsilon = 0) readout reproduces.  The realization check's swapped
# order must miss, which one shear cannot.
CHECKS = {
    "verdict": CheckNeeds(None, True),
    "robertson": CheckNeeds(None, True),
    "born": CheckNeeds("born", True, lambda model: model.exact_readout,
                       "an exact readout (epsilon = 0, as model 'noiseless' has)"),
    "repeatability": CheckNeeds(None, True),
    "realization": CheckNeeds(None, False, lambda model: len(model.steps) >= 2,
                              "two or more shear steps (as model 'noiseless' has)"),
    "limit_sweep": CheckNeeds("sweep", False,
                              lambda model: model.reference is not None,
                              "reference closed forms (built-in models have them)"),
    "grid_crosscheck": CheckNeeds("grid", True, lambda model: model.steps,
                                  "a shear factorization (built-in models have one)"),
}

# Per sweep kind: its points and CSV columns (k, then point or report fields).
SWEEPS = {
    "sharpen_momentum": (
        measurement.limit_sweep,
        ("k", "sigma_p", "epsilon", "eta", "product", "sigma_x_post")),
    "sharpen_pointer": (cascade.repeatability_sweep,
                        ("k", "sigma_y", "deviation", "epsilon", "eta")),
}

DEFAULT_TOLERANCES = {
    # the one rounding slack: zero assertions, closed-form matches and >=
    # bounds, each scaled by its figure's size or bound
    "exact": 1e-12,
    # grid route vs moment route on epsilon and eta
    "grid_match": 1e-4,
    # grid-route epsilon for the noiseless model, one bound for every object
    "grid_epsilon": 1e-8,
    # grid readout vs its exact law at the grid's lattice points
    "tv": 1e-3,
    # significance level of the sampled-readout KS test
    "ks_alpha": 0.01,
}


class ConfigError(ValueError):
    """Scenario file failed validation."""


class GridParams(NamedTuple):
    nx: int = grid.DEFAULT_POINTS
    ny: int = grid.DEFAULT_POINTS
    half_width: float | None = None


class SweepParams(NamedTuple):
    kind: str
    k_min: int = 0
    k_max: int = 10


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario, with its model and starting states built.

    hbar is ``model.system.hbar``.  ``object_prep`` holds the object's
    (weight, GaussianSpec) components: one packet gives a Gaussian
    ``object_state``, more a superposition's.  A moment state is None only
    without its section; ``grid_state`` (hbar = 1) without grid_crosscheck.
    """

    name: str
    model: measurement.MeasurementModel
    seed: int = 0
    checks: tuple = ()
    object_prep: tuple | None = None
    probe_spec: GaussianSpec | None = None
    object_state: states.MomentState | None = None
    probe_state: states.MomentState | None = None
    grid_params: GridParams = GridParams()
    sweep: SweepParams | None = None
    born_samples: int = 100000
    tolerances: dict = field(default_factory=dict)
    grid_state: grid.GridState | None = field(default=None, repr=False)


def _require_mapping(node, context):
    if not isinstance(node, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(node).__name__}")
    for key in node:
        if not isinstance(key, str):
            raise ConfigError(f"{context}: keys must be strings, got {key!r}")
    return node


def _check_keys(mapping, allowed, context):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}")


def _number(mapping, key, context, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{context}: missing required key {key!r}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: {key!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{context}: {key!r} must be finite")
    return float(value)


def _positive(mapping, key, context, default=None, required=False):
    value = _number(mapping, key, context, default=default, required=required)
    if value is not None and value <= 0:
        raise ConfigError(f"{context}: {key!r} must be positive, got {value}")
    return value


def _integer(mapping, key, context, default=None, minimum=None,
             maximum=None):
    if key not in mapping:
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}: {key!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{context}: {key!r} must be <= {maximum}, got {value}")
    return value


def _gaussian_spec(mapping, context, hbar, saturate_sigma_p=False):
    allowed = [f.name for f in fields(GaussianSpec)] + ["kind"]
    _check_keys(mapping, allowed, context)
    if mapping.get("kind", "gaussian") != "gaussian":
        raise ConfigError(f"{context}: kind must be 'gaussian' here")
    sigma_x = _positive(mapping, "sigma_x", context, required=True)
    correlation = _number(mapping, "correlation", context, default=0.0)
    if abs(correlation) >= 1:
        raise ConfigError(f"{context}: |correlation| must be < 1")
    if saturate_sigma_p and "sigma_p" not in mapping:
        spread = 2.0 * sigma_x * math.sqrt(1.0 - correlation ** 2)
        sigma_p = hbar / spread if spread else math.inf
        if not 0.0 < sigma_p < math.inf:  # at an extreme sigma_x
            raise ConfigError(
                f"{context}: sigma_x = {sigma_x} gives a saturating sigma_p "
                f"of {sigma_p}; give sigma_p")
    else:
        sigma_p = _positive(mapping, "sigma_p", context, required=True)
    mean_x = _number(mapping, "mean_x", context, default=0.0)
    mean_p = _number(mapping, "mean_p", context, default=0.0)
    with _refused_as(context):
        return GaussianSpec(sigma_x=sigma_x, sigma_p=sigma_p, mean_x=mean_x,
                            mean_p=mean_p, correlation=correlation)


def _object_prep(node, context, hbar):
    node = _require_mapping(node, context)
    kind = node.get("kind", "gaussian")
    if kind == "gaussian":
        return ((1.0, _gaussian_spec(node, context, hbar)),)
    if kind != "superposition":
        raise ConfigError(
            f"{context}: kind must be 'gaussian' or 'superposition', got {kind!r}")
    _check_keys(node, ("kind", "components"), context)
    raw = node.get("components")
    if not isinstance(raw, list) or len(raw) < 2:
        raise ConfigError(f"{context}: superposition needs a list of >= 2 components")
    components = []
    for k, item in enumerate(raw):
        sub = f"{context}.components[{k}]"
        item = dict(_require_mapping(item, sub))
        weight = _positive(item, "weight", sub, default=1.0)
        item.pop("weight", None)
        spec = _gaussian_spec(item, sub, hbar, saturate_sigma_p=True)
        components.append((weight, spec))
    return tuple(components)


@contextmanager
def _refused_as(context):
    """Turn a failure to build a model or state into a ConfigError."""
    try:
        yield
    except (ValueError, grid.BoundaryMassError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    except (ArithmeticError, MemoryError) as exc:
        raise ConfigError(f"{context}: {type(exc).__name__}: {exc}") from exc


def _interaction(node, context, hbar):
    """The custom model of an ``interaction`` section: the window's terms."""
    node = _require_mapping(node, context)
    _check_keys(node, ("terms",), context)
    raw = node.get("terms")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{context}: 'terms' must be a non-empty list")
    terms = []
    for k, item in enumerate(raw):
        sub = f"{context}.terms[{k}]"
        item = _require_mapping(item, sub)
        _check_keys(item, ("coefficient", "first", "second"), sub)
        coefficient = _number(item, "coefficient", sub, required=True)
        for key in ("first", "second"):
            coord = item.get(key)
            if not isinstance(coord, str) or coord not in measurement.COORDS:
                raise ConfigError(
                    f"{sub}: {key!r} must be one of "
                    f"{', '.join(measurement.COORDS)}, got {coord!r}")
        terms.append((coefficient, item["first"], item["second"]))
    with _refused_as(context):
        return measurement.coupling_model("custom", terms, hbar)


def _grid_params(node, context):
    node = _require_mapping(node, context)
    _check_keys(node, GridParams._fields, context)
    defaults = GridParams()
    nx = _integer(node, "nx", context, default=defaults.nx, minimum=16)
    ny = _integer(node, "ny", context, default=defaults.ny, minimum=16)
    for n, name in ((nx, "nx"), (ny, "ny")):
        if n & (n - 1):
            raise ConfigError(f"{context}: {name} must be a power of two, got {n}")
    return GridParams(
        nx=nx, ny=ny, half_width=_positive(node, "half_width", context))


def _sweep_params(node, context):
    node = _require_mapping(node, context)
    _check_keys(node, SweepParams._fields, context)
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in SWEEPS:
        raise ConfigError(
            f"{context}: kind must be one of {', '.join(SWEEPS)}, got {kind!r}")
    defaults = SweepParams(kind)
    k_min = _integer(node, "k_min", context, default=defaults.k_min, minimum=0)
    k_max = _integer(node, "k_max", context, default=defaults.k_max, minimum=0)
    if k_max < k_min:
        raise ConfigError(f"{context}: k_max must be >= k_min")
    return SweepParams(kind=kind, k_min=k_min, k_max=k_max)


def _tolerances(node, context):
    node = _require_mapping(node, context)
    _check_keys(node, tuple(DEFAULT_TOLERANCES), context)
    out = {}
    for key in node:
        value = _positive(node, key, context, required=True)
        if key == "ks_alpha" and not value < 1:
            raise ConfigError(f"{context}: ks_alpha must be in (0, 1)")
        out[key] = value
    return out


def parse_scenario(mapping, source="scenario"):
    """Validate a raw mapping into a Scenario; raise ConfigError otherwise."""
    mapping = _require_mapping(mapping, source)
    _check_keys(mapping, (
        "name", "model", "hbar", "seed", "checks", "object", "probe",
        "interaction", "grid", "sweep", "born", "tolerances"), source)

    name = mapping.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{source}: 'name' must be a non-empty string")
    if not all(c.isalnum() or c in "._-" for c in name):
        raise ConfigError(
            f"{source}: 'name' may only contain letters, digits, '.', '_', '-'")

    model_name = mapping.get("model")
    if not isinstance(model_name, str) or model_name not in MODELS:
        raise ConfigError(
            f"{source}: 'model' must be one of {', '.join(MODELS)}, "
            f"got {model_name!r}")

    hbar = _positive(mapping, "hbar", source, default=1.0)
    seed = _integer(mapping, "seed", source, default=Scenario.seed, minimum=0)

    raw_checks = mapping.get("checks")
    if not isinstance(raw_checks, list) or not raw_checks:
        raise ConfigError(f"{source}: 'checks' must be a non-empty list")
    seen = set()
    for check in raw_checks:
        if not isinstance(check, str) or check not in CHECKS:
            raise ConfigError(
                f"{source}: unknown check {check!r}; "
                f"known: {', '.join(CHECKS)}")
        if check in seen:
            raise ConfigError(f"{source}: duplicate check {check!r}")
        seen.add(check)
    checks = tuple(raw_checks)

    object_prep, object_state = None, None
    if "object" in mapping:
        context = f"{source}.object"
        object_prep = _object_prep(mapping["object"], context, hbar)
        with _refused_as(context):
            object_state = (
                states.from_gaussian(object_prep[0][1], hbar, ("object",))
                if len(object_prep) == 1 else
                states.from_superposition(object_prep, hbar, ("object",)))
    probe_spec, probe_state = None, None
    if "probe" in mapping:
        context = f"{source}.probe"
        probe_spec = _gaussian_spec(
            _require_mapping(mapping["probe"], context), context, hbar)
        with _refused_as(context):
            probe_state = states.from_gaussian(
                probe_spec, hbar=hbar, labels=("probe",))

    if model_name == "custom":
        if "interaction" not in mapping:
            raise ConfigError(f"{source}: model 'custom' requires 'interaction'")
        model = _interaction(
            mapping["interaction"], f"{source}.interaction", hbar)
    elif "interaction" in mapping:
        raise ConfigError(
            f"{source}: 'interaction' is only valid for model 'custom'")
    else:
        model = MODELS[model_name](hbar=hbar)

    grid_params = _grid_params(mapping.get("grid", {}), f"{source}.grid")

    sweep = None
    if "sweep" in mapping:
        sweep = _sweep_params(mapping["sweep"], f"{source}.sweep")

    born_node = _require_mapping(mapping.get("born", {}), f"{source}.born")
    _check_keys(born_node, ("samples",), f"{source}.born")
    # numpy cannot shape an array of more than sys.maxsize bytes, and a
    # float64 sample takes 8.
    born_samples = _integer(born_node, "samples", f"{source}.born",
                            default=Scenario.born_samples, minimum=10,
                            maximum=sys.maxsize // 8)

    tolerances = _tolerances(mapping.get("tolerances", {}),
                             f"{source}.tolerances")

    # Cross-field rules.
    for check, needs in CHECKS.items():
        if needs.section in mapping and check not in checks:
            raise ConfigError(
                f"{source}: '{needs.section}' requires the {check} check")
    needs_preps = [c for c in checks if CHECKS[c].preps]
    if needs_preps:
        if object_prep is None:
            raise ConfigError(
                f"{source}: checks {needs_preps} require an 'object' section")
        if probe_spec is None:
            raise ConfigError(
                f"{source}: checks {needs_preps} require a 'probe' section")
    if "born" in checks and not object_state.gaussian:
        raise ConfigError(
            f"{source}: the born check needs a Gaussian object: the moments "
            "of a superposition do not fix its outcome distribution")
    for check in checks:
        if not CHECKS[check].accepts(model):
            raise ConfigError(
                f"{source}: the {check} check needs {CHECKS[check].lacks}, "
                f"which model {model.name!r} lacks")
    if "limit_sweep" in checks:
        if sweep is None:
            raise ConfigError(f"{source}: the limit_sweep check needs 'sweep'")
        # Build the sharpest point, the one a float may not hold.
        with _refused_as(f"{source}.sweep"):
            SWEEPS[sweep.kind][0](model, [2.0 ** -sweep.k_max])

    grid_state = None
    if "grid_crosscheck" in checks:
        with _refused_as(f"{source}.grid"):
            components = [(w, grid.unit_hbar_spec(s, hbar))
                          for w, s in object_prep]
            grid_state = grid.init_grid(
                components, grid.unit_hbar_spec(probe_spec, hbar),
                nx=grid_params.nx, ny=grid_params.ny,
                half_width=grid_params.half_width)

    return Scenario(
        name=name,
        model=model,
        seed=seed,
        checks=checks,
        object_prep=object_prep,
        probe_spec=probe_spec,
        object_state=object_state,
        probe_state=probe_state,
        grid_params=grid_params,
        sweep=sweep,
        born_samples=born_samples,
        tolerances=tolerances,
        grid_state=grid_state,
    )


class _ScenarioLoader(yaml.CSafeLoader):
    """libyaml's safe loader that also reads YAML 1.2 floats such as 1e6.

    PyYAML follows YAML 1.1, whose float rule needs a dot and a signed
    exponent, so plain 1e6 would come back as a string.  A key given twice
    in one mapping is refused at its mark; libyaml would keep the last.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key.value!r}", key.start_mark)
                seen.add((key.tag, key.value))
        return super().construct_mapping(node, deep=deep)


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."))


def load_scenario(path):
    """Parse one scenario from a YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.load(handle, Loader=_ScenarioLoader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from exc
    except yaml.YAMLError as exc:  # one line, not PyYAML's several
        mark = getattr(exc, "problem_mark", None)
        problem = (f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
                   if mark else " ".join(str(exc).split()))
        raise ConfigError(f"{path}: not valid YAML ({problem})") from exc
    return parse_scenario(raw, source=str(path))


def _gallery_root():
    return resources.files("backaction") / "gallery"


def bundled_names():
    """Names of the scenarios shipped with the package, sorted."""
    return sorted(
        entry.name[:-len(".yaml")]
        for entry in _gallery_root().iterdir()
        if entry.name.endswith(".yaml"))


def load_bundled(name):
    """Load a shipped scenario by name."""
    entry = _gallery_root() / f"{name}.yaml"
    if not entry.is_file():
        raise ConfigError(
            f"no bundled scenario {name!r}; available: "
            f"{', '.join(bundled_names())}")
    raw = yaml.load(entry.read_text(encoding="utf-8"), Loader=_ScenarioLoader)
    return parse_scenario(raw, source=f"bundled:{name}")


def with_seed(scenario, seed):
    """Copy of a scenario with its sampling seed replaced, validated as in YAML."""
    value = _integer({"seed": seed}, "seed", "--seed", minimum=0)
    return replace(scenario, seed=value)
