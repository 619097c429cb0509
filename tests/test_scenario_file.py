import numpy as np
import pytest
import yaml

import chaosmask as cm
from chaosmask.errors import ScenarioFormatError
from chaosmask import scenario_file
from chaosmask.scenario_file import bundled_scenario_path, input_error, validate_scenario_cfg
from strategies import phi_value
from test_cli import INPUT_ERRORS


@pytest.fixture()
def toy_cfg(small_scenario_text):
    return yaml.safe_load(small_scenario_text)


class TestLoading:
    def test_bundled_name_resolves(self):
        cfg = cm.load_scenario_file("b747")
        assert cfg["name"] == "b747"

    def test_path_resolves(self, small_scenario_path):
        cfg = cm.load_scenario_file(str(small_scenario_path))
        assert cfg["name"] == "toy"

    def test_missing_scenario(self):
        with pytest.raises(ScenarioFormatError, match="neither"):
            cm.load_scenario_file("no-such-scenario")

    def test_unparseable_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("plant: [unclosed\n")
        with pytest.raises(ScenarioFormatError, match="parse"):
            cm.load_scenario_file(str(bad))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
def test_c_loader_reads_what_the_python_loader_reads(small_scenario_text):
    # The b747 file, the toy file and every edit of it that the CLI tests
    # make: the same keys, values and types (repr also tells 1 from 1.0 and
    # compares NaNs).
    assert scenario_file._YAML_LOADER is yaml.CSafeLoader
    texts = [bundled_scenario_path("b747").read_text(), small_scenario_text]
    texts += [small_scenario_text.replace(*edit) for edit, _, _ in INPUT_ERRORS if edit]
    for text in texts:
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == \
            repr(yaml.load(text, Loader=yaml.SafeLoader))


class TestSchema:
    def test_unknown_top_level_key(self, toy_cfg):
        toy_cfg["plannt"] = {}
        with pytest.raises(ScenarioFormatError, match="unknown key"):
            validate_scenario_cfg(toy_cfg)

    def test_unknown_nested_key(self, toy_cfg):
        toy_cfg["mask"]["chaos_level"] = 11
        with pytest.raises(ScenarioFormatError, match="chaos_level"):
            validate_scenario_cfg(toy_cfg)

    def test_missing_required_section(self, toy_cfg):
        del toy_cfg["plant"]
        with pytest.raises(ScenarioFormatError, match="plant"):
            validate_scenario_cfg(toy_cfg)

    def test_non_numeric_matrix(self, toy_cfg):
        toy_cfg["plant"]["A"][0][0] = "fast"
        with pytest.raises(ScenarioFormatError, match="numeric"):
            validate_scenario_cfg(toy_cfg)

    def test_ragged_matrix(self, toy_cfg):
        toy_cfg["controller"]["K"] = [[1.0], [1.0, 2.0]]
        with pytest.raises(ScenarioFormatError):
            validate_scenario_cfg(toy_cfg)

    def test_observer_exclusivity(self, toy_cfg):
        toy_cfg["observer"] = {"synthesize": True, "L": [[0.0]]}
        with pytest.raises(ScenarioFormatError, match="exactly one"):
            validate_scenario_cfg(toy_cfg)

    def test_detector_exclusivity(self, toy_cfg):
        toy_cfg["detector"] = {}
        with pytest.raises(ScenarioFormatError, match="exactly one"):
            validate_scenario_cfg(toy_cfg)

    def test_bad_mask_type(self, toy_cfg):
        toy_cfg["mask"]["type"] = "lorenz"
        with pytest.raises(ScenarioFormatError, match="rossler_p4 or custom"):
            validate_scenario_cfg(toy_cfg)

    def test_replay_requires_fields(self, toy_cfg):
        del toy_cfg["attacks"]["replay"]["tau"]
        with pytest.raises(ScenarioFormatError, match="tau"):
            validate_scenario_cfg(toy_cfg)

    def test_input_error_passes_scenario_errors_through(self):
        with pytest.raises(ScenarioFormatError) as exc:
            with input_error("mask.sigma"):
                raise ScenarioFormatError("controller.K must be finite")
        assert str(exc.value) == "controller.K must be finite"
        with pytest.raises(ScenarioFormatError, match="^invalid mask.sigma: "):
            with input_error("mask.sigma"):
                float("abc")


class TestBuilders:
    def test_build_plant(self, toy_cfg):
        plant = cm.build_plant(toy_cfg)
        assert (plant.n_x, plant.n_u, plant.n_y) == (2, 1, 3)

    def test_build_mask_scaled_vs_raw(self, toy_cfg):
        raw = cm.build_mask(toy_cfg, apply_beta=False)
        scaled = cm.build_mask(toy_cfg, apply_beta=True)
        assert raw.Phi[2, 1] == pytest.approx(0.5)
        assert scaled.Phi[2, 1] == pytest.approx(0.05)
        assert np.array_equal(raw.Lambda, scaled.Lambda)

    def test_mask_xi0_scaling(self, toy_cfg):
        toy_cfg["mask"]["xi0"] = [0.1, 0.3, 2.0]
        assert cm.mask_xi0(toy_cfg)[2] == pytest.approx(0.2)
        assert toy_cfg["mask"]["xi0"][2] == 2.0

    def test_calibrate_with_overrides(self, toy_cfg):
        toy_cfg["mask"]["sigma"] = [2.0, 3.0, 0.2]
        toy_cfg["mask"]["ell"] = 0.123
        toy_cfg["mask"]["d_bound"] = 7.0
        mask = cm.calibrate_mask(cm.build_mask(toy_cfg), toy_cfg)
        assert np.array_equal(mask.sigma, [2.0, 3.0, 0.2])
        assert mask.ell == 0.123
        assert mask.d_bound == 7.0

    def test_unscaled_mask_maps_explicit_scaled_box(self):
        # Explicit sigma / d_bound / ell describe the beta-scaled masker.  The
        # unscaled mask maps them through T^-1 = diag(1, 1, beta) instead of
        # copying them: sigma_3 is 0.024 * 100 = 2.4, not 0.024.
        cfg = cm.load_scenario_file("b747")
        cfg["mask"].update(sigma=[2.1, 2.87, 0.024], d_bound=6.0, ell=0.0287)
        raw = cm.calibrate_mask(cm.build_mask(cfg, False), cfg, False)
        alongside = cm.build_mask(cfg, False)
        scaled = cm.calibrate_mask(cm.build_mask(cfg), cfg, unscaled=alongside)
        assert np.array_equal(scaled.sigma, [2.1, 2.87, 0.024])
        assert (scaled.d_bound, scaled.ell) == (6.0, 0.0287)
        for mask in (raw, alongside):
            assert np.array_equal(mask.sigma, [2.1, 2.87, 0.024 * 100.0])
            assert mask.sigma[2] == pytest.approx(2.4)
            assert mask.d_bound == np.linalg.norm(mask.Lambda, 2) * np.linalg.norm(mask.sigma)
            assert mask.ell == pytest.approx(2.0 * 0.5 * 2.87)  # Rossler bound 2 a sigma_2
        assert cfg["mask"]["sigma"] == [2.1, 2.87, 0.024]

    def test_custom_polynomial_mask(self):
        cfg_mask = {
            "type": "custom",
            "Phi": [[-1.0, 0.0], [0.0, -2.0]],
            "phi": [[[0.1, [2, 0]]], []],
            "Lambda": [[1.0, 0.0]],
            "xi0": [0.5, 0.5],
        }
        mask = cm.build_mask({"mask": cfg_mask})
        assert mask.n_xi == 2
        assert phi_value(mask.phi, [2.0, 0.0])[0] == pytest.approx(0.4)
