"""Scenario files: what to prepare, which model to run, what to check.

A scenario is one YAML mapping.  Validation is strict: unknown keys are
rejected with the offending key named, every cross-field requirement
(e.g. a sweep section without the sweep check) is an error at load time,
and inadmissible preparations fail here rather than deep inside a run.

The package ships a gallery of ready-made scenarios; ``bundled_names`` and
``load_bundled`` expose them by name.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import NamedTuple

import yaml

from . import canonical, grid, measurement, states
from .states import GaussianSpec

MODELS = ("von_neumann", "noiseless", "custom")

CHECK_KINDS = (
    "verdict",
    "robertson",
    "born",
    "repeatability",
    "realization",
    "limit_sweep",
    "grid_crosscheck",
)

# Checks that consume the object/probe preparations.
_PREP_CHECKS = ("verdict", "robertson", "born", "repeatability", "grid_crosscheck")

SWEEP_KINDS = ("sharpen_momentum", "sharpen_pointer")

_COORDS = {"x": 0, "px": 1, "y": 2, "py": 3}

DEFAULT_TOLERANCES = {
    # one-sided zero assertions and closed-form matches
    "exact": 1e-12,
    # slack on >= bounds
    "bound": 1e-12,
    # grid route vs moment route on epsilon and eta
    "grid_match": 1e-4,
    # grid-route epsilon for the noiseless model, single-packet objects
    "grid_epsilon": 1e-8,
    # same, superposition objects (interference raises the rounding floor)
    "grid_epsilon_multi": 1e-6,
    # readout histogram vs object position marginal
    "tv": 1e-3,
    # significance level of the sampled-readout KS test
    "ks_alpha": 0.01,
}


class ConfigError(ValueError):
    """Scenario file failed validation."""


class ObjectPrep(NamedTuple):
    """Object-mode preparation: one packet, or a superposition of packets."""

    kind: str  # "gaussian" | "superposition"
    components: tuple  # of (weight, GaussianSpec)

    @property
    def spec(self):
        if self.kind != "gaussian":
            raise ValueError("superposition preparation has no single spec")
        return self.components[0][1]


class GridParams(NamedTuple):
    nx: int = grid.DEFAULT_POINTS
    ny: int = grid.DEFAULT_POINTS
    half_width: float | None = None
    boundary_threshold: float = grid.DEFAULT_BOUNDARY_THRESHOLD


class SweepParams(NamedTuple):
    kind: str
    k_min: int = 0
    k_max: int = 10


class InteractionTerm(NamedTuple):
    coefficient: float
    first: int
    second: int


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    model: str
    hbar: float = 1.0
    seed: int = 0
    checks: tuple = ()
    object_prep: ObjectPrep | None = None
    probe_spec: GaussianSpec | None = None
    coupling: float = 1.0
    interaction: tuple = ()  # of InteractionTerm, custom model only
    grid_params: GridParams = GridParams()
    sweep: SweepParams | None = None
    born_samples: int = 100000
    tolerances: dict = field(default_factory=dict)


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


def _integer(mapping, key, context, default=None, required=False, minimum=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{context}: missing required key {key!r}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}: {key!r} must be >= {minimum}, got {value}")
    return value


def _gaussian_spec(mapping, context, hbar, saturate_sigma_p=False):
    allowed = ("sigma_x", "sigma_p", "mean_x", "mean_p", "correlation", "kind")
    _check_keys(mapping, allowed, context)
    if mapping.get("kind", "gaussian") != "gaussian":
        raise ConfigError(f"{context}: kind must be 'gaussian' here")
    sigma_x = _positive(mapping, "sigma_x", context, required=True)
    correlation = _number(mapping, "correlation", context, default=0.0)
    if abs(correlation) >= 1:
        raise ConfigError(f"{context}: |correlation| must be < 1")
    if saturate_sigma_p and "sigma_p" not in mapping:
        sigma_p = hbar / (2.0 * sigma_x * math.sqrt(1.0 - correlation ** 2))
    else:
        sigma_p = _positive(mapping, "sigma_p", context, required=True)
    spec = GaussianSpec(
        sigma_x=sigma_x,
        sigma_p=sigma_p,
        mean_x=_number(mapping, "mean_x", context, default=0.0),
        mean_p=_number(mapping, "mean_p", context, default=0.0),
        correlation=correlation)
    if not spec.admissible(hbar):
        raise ConfigError(
            f"{context}: sigma_x * sigma_p * sqrt(1 - rho^2) = "
            f"{spec.uncertainty_product():.6g} < hbar/2 = {hbar / 2:.6g}")
    return spec


def _object_prep(node, context, hbar):
    node = _require_mapping(node, context)
    kind = node.get("kind", "gaussian")
    if kind == "gaussian":
        return ObjectPrep("gaussian", ((1.0, _gaussian_spec(node, context, hbar)),))
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
    return ObjectPrep("superposition", tuple(components))


def _is_pure(spec, hbar):
    return abs(spec.uncertainty_product() - hbar / 2.0) <= grid.PURITY_TOL * hbar


def _interaction(node, context):
    node = _require_mapping(node, context)
    _check_keys(node, ("coupling", "terms"), context)
    coupling = _positive(node, "coupling", context, default=Scenario.coupling)
    raw = node.get("terms")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{context}: 'terms' must be a non-empty list")
    terms = []
    for k, item in enumerate(raw):
        sub = f"{context}.terms[{k}]"
        item = _require_mapping(item, sub)
        _check_keys(item, ("coefficient", "first", "second"), sub)
        coefficient = _number(item, "coefficient", sub, required=True)
        indices = []
        for key in ("first", "second"):
            coord = item.get(key)
            if coord not in _COORDS:
                raise ConfigError(
                    f"{sub}: {key!r} must be one of {', '.join(_COORDS)}, "
                    f"got {coord!r}")
            indices.append(_COORDS[coord])
        terms.append(InteractionTerm(coefficient, indices[0], indices[1]))
    return coupling, tuple(terms)


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
        nx=nx,
        ny=ny,
        half_width=_positive(node, "half_width", context),
        boundary_threshold=_positive(
            node, "boundary_threshold", context,
            default=defaults.boundary_threshold))


def _sweep_params(node, context):
    node = _require_mapping(node, context)
    _check_keys(node, SweepParams._fields, context)
    kind = node.get("kind")
    if kind not in SWEEP_KINDS:
        raise ConfigError(
            f"{context}: kind must be one of {', '.join(SWEEP_KINDS)}, got {kind!r}")
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

    model = mapping.get("model")
    if model not in MODELS:
        raise ConfigError(
            f"{source}: 'model' must be one of {', '.join(MODELS)}, got {model!r}")

    hbar = _positive(mapping, "hbar", source, default=Scenario.hbar)
    seed = _integer(mapping, "seed", source, default=Scenario.seed, minimum=0)

    raw_checks = mapping.get("checks")
    if not isinstance(raw_checks, list) or not raw_checks:
        raise ConfigError(f"{source}: 'checks' must be a non-empty list")
    seen = set()
    for check in raw_checks:
        if check not in CHECK_KINDS:
            raise ConfigError(
                f"{source}: unknown check {check!r}; "
                f"known: {', '.join(CHECK_KINDS)}")
        if check in seen:
            raise ConfigError(f"{source}: duplicate check {check!r}")
        seen.add(check)
    checks = tuple(raw_checks)

    object_prep = None
    if "object" in mapping:
        object_prep = _object_prep(mapping["object"], f"{source}.object", hbar)
    probe_spec = None
    if "probe" in mapping:
        probe_spec = _gaussian_spec(
            _require_mapping(mapping["probe"], f"{source}.probe"),
            f"{source}.probe", hbar)

    coupling, interaction = Scenario.coupling, Scenario.interaction
    if model == "custom":
        if "interaction" not in mapping:
            raise ConfigError(f"{source}: model 'custom' requires 'interaction'")
        coupling, interaction = _interaction(
            mapping["interaction"], f"{source}.interaction")
    elif "interaction" in mapping:
        raise ConfigError(
            f"{source}: 'interaction' is only valid for model 'custom'")

    grid_params = GridParams()
    if "grid" in mapping:
        grid_params = _grid_params(mapping["grid"], f"{source}.grid")

    sweep = None
    if "sweep" in mapping:
        sweep = _sweep_params(mapping["sweep"], f"{source}.sweep")

    born_samples = Scenario.born_samples
    if "born" in mapping:
        born_node = _require_mapping(mapping["born"], f"{source}.born")
        _check_keys(born_node, ("samples",), f"{source}.born")
        born_samples = _integer(
            born_node, "samples", f"{source}.born", default=born_samples,
            minimum=10)

    tolerances = {}
    if "tolerances" in mapping:
        tolerances = _tolerances(mapping["tolerances"], f"{source}.tolerances")

    # Cross-field rules.
    needs_preps = [c for c in checks if c in _PREP_CHECKS]
    if needs_preps:
        if object_prep is None:
            raise ConfigError(
                f"{source}: checks {needs_preps} require an 'object' section")
        if probe_spec is None:
            raise ConfigError(
                f"{source}: checks {needs_preps} require a 'probe' section")
    if object_prep is not None and object_prep.kind == "superposition":
        extra = [c for c in checks if c != "grid_crosscheck"]
        if extra:
            raise ConfigError(
                f"{source}: a superposition object only supports the "
                f"grid_crosscheck check, also got {extra}")
    if "realization" in checks and model != "noiseless":
        raise ConfigError(
            f"{source}: the realization check applies to model 'noiseless'")
    if "limit_sweep" in checks:
        if sweep is None:
            raise ConfigError(f"{source}: the limit_sweep check needs 'sweep'")
        if model == "custom":
            raise ConfigError(
                f"{source}: limit_sweep has no reference behavior for "
                "custom models")
    elif sweep is not None:
        raise ConfigError(f"{source}: 'sweep' requires the limit_sweep check")
    if "grid_crosscheck" in checks:
        if model == "custom":
            raise ConfigError(
                f"{source}: grid_crosscheck supports built-in models only")
        for weight, spec in (object_prep.components if object_prep else ()):
            if not _is_pure(spec, hbar):
                raise ConfigError(
                    f"{source}.object: grid_crosscheck needs pure packets "
                    "(sigma_x * sigma_p * sqrt(1 - rho^2) = hbar/2); got "
                    f"product {spec.uncertainty_product():.6g}")
        if probe_spec is not None and not _is_pure(probe_spec, hbar):
            raise ConfigError(
                f"{source}.probe: grid_crosscheck needs a pure packet; got "
                f"product {probe_spec.uncertainty_product():.6g}")
    # The born reference is the object's position distribution, which only
    # an exact (epsilon = 0) readout reproduces.
    if "born" in checks and model != "noiseless":
        raise ConfigError(
            f"{source}: the born check applies to model 'noiseless'")

    return Scenario(
        name=name,
        model=model,
        hbar=hbar,
        seed=seed,
        checks=checks,
        object_prep=object_prep,
        probe_spec=probe_spec,
        coupling=coupling,
        interaction=interaction,
        grid_params=grid_params,
        sweep=sweep,
        born_samples=born_samples,
        tolerances=tolerances,
    )


class _ScenarioLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 1e6 and 3e-1.

    PyYAML follows YAML 1.1, whose float rule needs a dot and a signed
    exponent, so plain 1e6 would come back as a string.
    """


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."))


def load_scenario(path):
    """Parse one scenario from a YAML file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = yaml.load(handle, Loader=_ScenarioLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
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


def build_model(scenario):
    """Instantiate the measurement model a scenario names."""
    if scenario.model == "von_neumann":
        return measurement.von_neumann_model(hbar=scenario.hbar)
    if scenario.model == "noiseless":
        return measurement.noiseless_model(hbar=scenario.hbar)
    system = canonical.ModeSystem(
        2, hbar=scenario.hbar, labels=("object", "probe"))
    hamiltonian = canonical.build_quadratic(
        system,
        [(term.coefficient * scenario.coupling, term.first, term.second)
         for term in scenario.interaction])
    return measurement.MeasurementModel(
        name="custom",
        system=system,
        hamiltonian=hamiltonian,
        coupling=scenario.coupling,
    )


def object_state(scenario):
    """Moment state of a gaussian object preparation."""
    return states.from_gaussian(
        scenario.object_prep.spec, hbar=scenario.hbar, labels=("object",))


def probe_state(scenario):
    """Moment state of the probe preparation."""
    return states.from_gaussian(
        scenario.probe_spec, hbar=scenario.hbar, labels=("probe",))
