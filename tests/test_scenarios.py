import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from backaction import grid, measurement, scenarios, states
from backaction.cli import run_scenario
from backaction.scenarios import (
    ConfigError,
    bundled_names,
    load_bundled,
    load_scenario,
    parse_scenario,
)


def _base(**overrides):
    mapping = {
        "name": "case",
        "model": "von_neumann",
        "checks": ["verdict"],
        "object": {"sigma_x": 1.0, "sigma_p": 0.5},
        "probe": {"sigma_x": 1.0, "sigma_p": 0.5},
    }
    mapping.update(overrides)
    return mapping


G = math.pi / (3.0 * math.sqrt(3.0))

# Each built-in model's terms, written as an interaction section.
INTERACTIONS = {
    name: {"terms": [{"coefficient": c, "first": first, "second": second}
                     for c, first, second in terms]}
    for name, terms in (
        ("von_neumann", [(1.0, "x", "py")]),
        ("noiseless", [(2.0 * G, "x", "py"), (-2.0 * G, "px", "y"),
                       (G, "x", "px"), (-G, "y", "py")]))}


class TestBundledGallery:
    def test_names_are_sorted_and_stable(self):
        names = bundled_names()
        assert names == sorted(names)
        assert "noiseless-violation" in names
        assert "von-neumann-bound" in names

    def test_every_bundled_scenario_parses(self):
        for name in bundled_names():
            scenario = load_bundled(name)
            assert scenario.name == name
            assert isinstance(scenario.model, measurement.MeasurementModel)

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError, match="available"):
            load_bundled("does-not-exist")


class TestTopLevelValidation:
    def test_minimal_scenario_parses(self):
        scenario = parse_scenario(_base())
        assert scenario.model.name == "von_neumann"
        assert scenario.model.system.hbar == 1.0
        assert len(scenario.object_prep) == 1  # a Gaussian object
        assert scenario.object_state is not None
        assert scenario.seed == 0
        assert scenario.checks == ("verdict",)
        assert scenario.born_samples == 100000

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_scenario(["not", "a", "mapping"])

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ConfigError, match="'extra'"):
            parse_scenario(_base(extra=1))

    def test_name_validation(self):
        with pytest.raises(ConfigError, match="name"):
            parse_scenario(_base(name=""))
        with pytest.raises(ConfigError, match="name"):
            parse_scenario(_base(name="bad name with spaces"))

    def test_model_validation(self):
        with pytest.raises(ConfigError, match="model"):
            parse_scenario(_base(model="heisenberg"))

    def test_hbar_and_seed_validation(self):
        with pytest.raises(ConfigError, match="hbar"):
            parse_scenario(_base(hbar=-1.0))
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(_base(seed=-3))
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(_base(seed=1.5))

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="hbar"):
            parse_scenario(_base(hbar=True))

    def test_checks_validation(self):
        with pytest.raises(ConfigError, match="checks"):
            parse_scenario(_base(checks=[]))
        with pytest.raises(ConfigError, match="unknown check"):
            parse_scenario(_base(checks=["verdicts"]))
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(_base(checks=["verdict", "verdict"]))


class TestPrepValidation:
    def test_unknown_spec_key_is_named(self):
        with pytest.raises(ConfigError, match="'sigma_z'"):
            parse_scenario(_base(object={"sigma_x": 1.0, "sigma_z": 2.0}))

    def test_missing_required_spread(self):
        with pytest.raises(ConfigError, match="sigma_p"):
            parse_scenario(_base(object={"sigma_x": 1.0}))

    def test_inadmissible_preparation_rejected_at_load(self):
        with pytest.raises(ConfigError, match="hbar/2"):
            parse_scenario(_base(object={"sigma_x": 0.5, "sigma_p": 0.5}))

    def test_correlation_bounds(self):
        with pytest.raises(ConfigError, match="correlation"):
            parse_scenario(_base(
                object={"sigma_x": 1.0, "sigma_p": 2.0, "correlation": 1.0}))

    def test_correlation_tightens_admissibility(self):
        # sigma_x sigma_p = 0.6 > 1/2 but the correlated product dips under.
        with pytest.raises(ConfigError, match="hbar/2"):
            parse_scenario(_base(
                object={"sigma_x": 1.0, "sigma_p": 0.6, "correlation": 0.9}))

    def test_prep_checks_require_both_sections(self):
        mapping = _base()
        del mapping["object"]
        with pytest.raises(ConfigError, match="object"):
            parse_scenario(mapping)
        mapping = _base()
        del mapping["probe"]
        with pytest.raises(ConfigError, match="probe"):
            parse_scenario(mapping)

    def test_realization_needs_no_preps(self):
        scenario = parse_scenario({
            "name": "factor", "model": "noiseless", "checks": ["realization"]})
        assert scenario.object_prep is None

    def test_superposition_parses(self):
        scenario = parse_scenario(_base(
            model="noiseless",
            checks=["grid_crosscheck"],
            object={
                "kind": "superposition",
                "components": [
                    {"weight": 1.0, "sigma_x": 0.8, "mean_x": -2.0},
                    {"sigma_x": 0.8, "mean_x": 2.0},
                ],
            }))
        assert len(scenario.object_prep) == 2
        # The closed-form moments: symmetric peaks, so the mean is zero.
        state = scenario.object_state
        assert isinstance(state, states.MomentState) and not state.gaussian
        assert state.system.labels == ("object",)
        assert state.mean.tolist() == [0.0, 0.0]
        assert state.cov[0, 0] > 2.0 ** 2
        weights = [w for w, _ in scenario.object_prep]
        assert weights == [1.0, 1.0]
        # Omitted sigma_p saturates the pure-packet product.
        for _, spec in scenario.object_prep:
            assert spec.uncertainty_product() == pytest.approx(0.5)

    def test_superposition_needs_two_components(self):
        with pytest.raises(ConfigError, match=">= 2"):
            parse_scenario(_base(
                model="noiseless",
                checks=["grid_crosscheck"],
                object={"kind": "superposition",
                        "components": [{"sigma_x": 0.8}]}))

    def test_superposition_takes_every_check_but_born(self):
        superposition = {"kind": "superposition", "components": [
            {"sigma_x": 0.8, "mean_x": -2.0}, {"sigma_x": 0.8, "mean_x": 2.0}]}
        for model in ("noiseless", "von_neumann"):
            scenario = parse_scenario(_base(
                model=model, checks=["verdict", "robertson", "repeatability"],
                object=superposition))
            assert run_scenario(scenario)[0]["passed"]
        with pytest.raises(ConfigError, match=(
                "the born check needs a Gaussian object: the moments of a "
                "superposition do not fix its outcome distribution")):
            parse_scenario(_base(
                model="noiseless", checks=["verdict", "born"],
                object=superposition))

    def test_born_needs_gaussian_object(self):
        with pytest.raises(ConfigError, match="born"):
            parse_scenario(_base(
                model="noiseless",
                checks=["grid_crosscheck", "born"],
                object={
                    "kind": "superposition",
                    "components": [
                        {"sigma_x": 0.8, "mean_x": -2.0},
                        {"sigma_x": 0.8, "mean_x": 2.0},
                    ],
                }))


class TestCrossFieldRules:
    def test_realization_requires_noiseless(self):
        with pytest.raises(ConfigError, match="noiseless"):
            parse_scenario(_base(checks=["verdict", "realization"]))

    def test_born_requires_noiseless(self):
        # Only an exact readout reproduces the object's position
        # distribution, the born check's reference.  A custom model that
        # writes out the noiseless terms has one, so it loads, and its
        # verdict is held to epsilon = 0 as the built-in model's is.
        for overrides in (
                {"model": "von_neumann"},
                {"model": "custom", "interaction": INTERACTIONS["von_neumann"]}):
            with pytest.raises(ConfigError,
                               match="born.*exact readout.*noiseless"):
                parse_scenario(_base(checks=["born"], **overrides))
        built_in, written = (
            parse_scenario(_base(checks=["verdict", "born"], **overrides))
            for overrides in (
                {"model": "noiseless"},
                {"model": "custom", "interaction": INTERACTIONS["noiseless"]}))
        assert written.model.exact_readout and written.model.reference is None
        checks = run_scenario(built_in)[0]["checks"]
        assert run_scenario(written)[0]["checks"] == checks
        assert checks["born"]["passed"] and checks["verdict"]["passed"]
        assert checks["verdict"]["note"].startswith("readout is exact")

    def test_sweep_requires_limit_sweep_check(self):
        with pytest.raises(ConfigError, match="limit_sweep"):
            parse_scenario(_base(sweep={"kind": "sharpen_momentum"}))

    def test_limit_sweep_requires_sweep_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_scenario(_base(checks=["limit_sweep"]))

    def test_sweep_parses(self):
        scenario = parse_scenario({
            "name": "sweep", "model": "noiseless",
            "checks": ["limit_sweep"],
            "sweep": {"kind": "sharpen_momentum", "k_min": 1, "k_max": 5}})
        assert scenario.sweep.k_min == 1
        assert scenario.sweep.k_max == 5

    def test_sweep_kind_and_range_validated(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_scenario(_base(
                checks=["limit_sweep"], sweep={"kind": "blur"}))
        with pytest.raises(ConfigError, match="k_max"):
            parse_scenario(_base(
                checks=["limit_sweep"],
                sweep={"kind": "sharpen_pointer", "k_min": 4, "k_max": 2}))

    def test_inadmissible_superposition_component_refused(self):
        # Components are pure packets, a rule stricter than
        # sigma_x sigma_p sqrt(1 - rho^2) >= hbar/2.
        with pytest.raises(ConfigError, match=(
                r"\.object: .*pure.*object component 1 .*0\.08")):
            parse_scenario(_base(
                model="noiseless",
                checks=["grid_crosscheck"],
                object={"kind": "superposition", "components": [
                    {"sigma_x": 0.8, "mean_x": -2.0},
                    {"sigma_x": 0.8, "sigma_p": 0.1, "mean_x": 2.0}]}))

    def test_grid_crosscheck_needs_pure_packets(self):
        with pytest.raises(ConfigError, match="pure"):
            parse_scenario(_base(
                model="noiseless",
                checks=["grid_crosscheck"],
                object={"sigma_x": 1.0, "sigma_p": 1.0}))

    def test_grid_section_validated(self):
        with pytest.raises(ConfigError, match="power of two"):
            parse_scenario(_base(grid={"nx": 100}))
        with pytest.raises(ConfigError, match="'n'"):
            parse_scenario(_base(grid={"n": 256}))

    def test_grid_crosscheck_rejects_custom_model(self):
        with pytest.raises(ConfigError, match="built-in"):
            parse_scenario(_base(
                model="custom",
                checks=["grid_crosscheck"],
                object={"sigma_x": 1.0, "sigma_p": 0.5},
                interaction={"terms": [
                    {"coefficient": 1.0, "first": "x", "second": "py"}]}))

    def test_born_section_validated(self):
        born = {"model": "noiseless", "checks": ["born"]}
        scenario = parse_scenario(_base(born={"samples": 5000}, **born))
        assert scenario.born_samples == 5000
        with pytest.raises(ConfigError, match="samples"):
            parse_scenario(_base(born={"samples": 5}, **born))

    @pytest.mark.parametrize("section, body, check", [
        ("born", {"samples": 50}, "born"),
        ("grid", {"nx": 64}, "grid_crosscheck"),
    ])
    def test_section_requires_its_check(self, section, body, check):
        # A section no check reads would be silently ignored.
        with pytest.raises(ConfigError,
                           match=f"'{section}' requires the {check} check"):
            parse_scenario(_base(model="noiseless", **{section: body}))

    def test_tolerance_overrides(self):
        scenario = parse_scenario(_base(tolerances={"grid_match": 1e-5}))
        assert scenario.tolerances == {"grid_match": 1e-5}
        with pytest.raises(ConfigError, match="'nope'"):
            parse_scenario(_base(tolerances={"nope": 1e-5}))
        with pytest.raises(ConfigError, match="ks_alpha"):
            parse_scenario(_base(tolerances={"ks_alpha": 1.5}))

    def test_grid_epsilon_multi_is_an_unknown_tolerance(self, tmp_path):
        # grid_epsilon holds every object, superpositions included; the
        # looser key they once had is refused like any unknown one.
        path = tmp_path / "case.yaml"
        path.write_text(textwrap.dedent("""\
            name: case
            model: noiseless
            checks: [verdict]
            object: {sigma_x: 1.0, sigma_p: 0.5}
            probe: {sigma_x: 0.5, sigma_p: 1.0}
            tolerances: {grid_epsilon_multi: 1.0e-6}
            """), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"tolerances: unknown key\(s\) "
                                              r"'grid_epsilon_multi'"):
            load_scenario(path)

    def test_readme_lists_every_tolerance_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        listed = re.findall(r"^- `(\w+)` = (\S+):", readme, re.MULTILINE)
        assert {key: float(value) for key, value in listed} == \
            scenarios.DEFAULT_TOLERANCES
        assert len(listed) == len(scenarios.DEFAULT_TOLERANCES)


class TestBuiltAtLoad:
    def test_model_and_states_are_built_with_the_scenario(self):
        scenario = parse_scenario(_base(
            hbar=0.5, object={"sigma_x": 2.0, "sigma_p": 0.5, "mean_x": 1.0}))
        obj, probe = scenario.object_state, scenario.probe_state
        assert scenario.model.system.hbar == 0.5
        assert obj.system.hbar == probe.system.hbar == 0.5
        np.testing.assert_array_equal(obj.mean, [1.0, 0.0])
        np.testing.assert_array_equal(obj.cov, [[4.0, 0.0], [0.0, 0.25]])
        np.testing.assert_array_equal(probe.cov, [[1.0, 0.0], [0.0, 0.25]])

    @pytest.mark.parametrize("section", ["object", "probe"])
    def test_overflowing_preparation_refused_at_load(self, section):
        # sigma_x^2 overflows a float while the covariance is built.
        with pytest.raises(ConfigError,
                           match=rf"scenario\.{section}: OverflowError"):
            parse_scenario(_base(**{section: {"sigma_x": 1e200,
                                               "sigma_p": 1.0}}))

    def test_grid_box_resolved_at_load(self):
        mapping = _base(model="noiseless", checks=["grid_crosscheck"],
                        hbar=2.0, grid={"nx": 256, "ny": 128},
                        object={"sigma_x": 1.0, "sigma_p": 1.0},
                        probe={"sigma_x": 0.5, "sigma_p": 2.0})
        scenario = parse_scenario(mapping)
        ((_, obj_spec),) = scenario.object_prep
        obj_unit = grid.unit_hbar_spec(obj_spec, 2.0)
        probe_unit = grid.unit_hbar_spec(scenario.probe_spec, 2.0)
        state = scenario.grid_state
        assert scenario.grid_params.half_width is None
        assert state.lx == grid.auto_half_width([obj_unit], probe_unit, 128)
        fresh = grid.init_grid([(1.0, obj_unit)], probe_unit, nx=256, ny=128)
        for got, want in zip(state.factors, fresh.factors, strict=True):
            assert got.tobytes() == want.tobytes()
        assert scenarios.with_seed(scenario, 3).grid_state is state
        # Momentum ceiling 16.1 against 12 needed: the explicit box holds.
        mapping["grid"]["half_width"] = 12.5
        assert parse_scenario(mapping).grid_state.lx == 12.5
        assert parse_scenario(_base()).grid_state is None

    def test_grid_box_refused_at_load(self):
        # A packet 1000 widths off centre needs a box whose momentum
        # ceiling 64 points cannot reach.
        with pytest.raises(ConfigError, match=r"scenario\.grid: .*cannot hold"):
            parse_scenario(_base(
                model="noiseless", checks=["grid_crosscheck"],
                grid={"nx": 64, "ny": 64},
                object={"sigma_x": 1.0, "sigma_p": 0.5, "mean_x": 1000.0}))


class TestCustomModels:
    def test_custom_model_builds_and_runs(self):
        # Each built-in model's terms, written as an interaction section,
        # give exactly the built-in window and its readout's exactness,
        # but neither its shears nor its reference.
        for built_in in (measurement.von_neumann_model(),
                         measurement.noiseless_model()):
            scenario = parse_scenario(_base(
                model="custom", interaction=INTERACTIONS[built_in.name]))
            model = scenario.model
            assert np.array_equal(
                model.endpoint.matrix, built_in.endpoint.matrix)
            assert model.exact_readout == built_in.exact_readout
            assert model.steps == () and model.reference is None

    def test_coupling_key_refused(self):
        with pytest.raises(ConfigError, match="unknown key.*'coupling'"):
            parse_scenario(_base(
                model="custom",
                interaction={"coupling": 2.0, "terms": [
                    {"coefficient": 1.0, "first": "x", "second": "py"}]}))

    def test_custom_requires_interaction(self):
        with pytest.raises(ConfigError, match="interaction"):
            parse_scenario(_base(model="custom"))

    def test_interaction_only_for_custom(self):
        with pytest.raises(ConfigError, match="custom"):
            parse_scenario(_base(
                interaction={"terms": [
                    {"coefficient": 1.0, "first": "x", "second": "py"}]}))

    def test_term_coordinates_validated(self):
        with pytest.raises(ConfigError, match="'z'"):
            parse_scenario(_base(
                model="custom",
                interaction={"terms": [
                    {"coefficient": 1.0, "first": "x", "second": "z"}]}))

    def test_unbalanced_term_rejected_at_build(self):
        # x px carries a nonzero ordering constant on its own; the builder
        # refuses rather than guessing a symmetrization, when the scenario
        # loads.
        with pytest.raises(ConfigError, match=r"scenario\.interaction: .*ordering"):
            parse_scenario(_base(
                model="custom",
                interaction={"terms": [
                    {"coefficient": 1.0, "first": "x", "second": "px"}]}))


class TestLoadScenario:
    def test_round_trip_through_yaml(self, tmp_path):
        path = tmp_path / "case.yaml"
        path.write_text(textwrap.dedent("""\
            name: case
            model: noiseless
            checks: [verdict, robertson]
            object: {sigma_x: 1.0, sigma_p: 0.5}
            probe: {sigma_x: 0.5, sigma_p: 1.0}
            """), encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.checks == ("verdict", "robertson")
        assert scenario.probe_spec.sigma_x == 0.5

    def test_invalid_yaml_reports_the_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="broken.yaml"):
            load_scenario(path)

    def test_yaml_scalar_rejected(self, tmp_path):
        path = tmp_path / "scalar.yaml"
        path.write_text("just a string", encoding="utf-8")
        with pytest.raises(ConfigError, match="mapping"):
            load_scenario(path)


class TestYamlNumbers:
    BODY = """\
        name: case
        model: noiseless
        checks: [verdict]
        object: {{sigma_x: 1.0, sigma_p: 0.5, mean_x: {value}}}
        probe: {{sigma_x: 0.5, sigma_p: 1.0}}
        """

    def _load(self, tmp_path, value):
        path = tmp_path / "case.yaml"
        path.write_text(textwrap.dedent(self.BODY.format(value=value)),
                        encoding="utf-8")
        return load_scenario(path)

    @pytest.mark.parametrize("text, value", [
        ("1e6", 1e6), ("3e-1", 0.3), ("-2.5E+3", -2500.0)])
    def test_exponent_floats_are_numbers(self, tmp_path, text, value):
        # YAML 1.1 would read these as strings; scenarios use YAML 1.2.
        scenario = self._load(tmp_path, text)
        ((_, spec),) = scenario.object_prep
        assert spec.mean_x == value

    @pytest.mark.parametrize("text", [".inf", "-.inf", ".nan"])
    def test_non_finite_floats_still_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="finite"):
            self._load(tmp_path, text)

    def test_with_seed_validates_like_yaml(self):
        scenario = parse_scenario(_base())
        assert scenarios.with_seed(scenario, 12).seed == 12
        for bad in (-1, 1.5, True):
            with pytest.raises(ConfigError, match="seed"):
                scenarios.with_seed(scenario, bad)
