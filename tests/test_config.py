"""Tests for run-configuration parsing."""

import json
from pathlib import Path

import numpy as np
import pytest

from kernelcc.cli import _policy_key
from kernelcc.config import ConfigError, load_config, parse_config
from kernelcc.data import dataset_key, library_key

SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "experiment.json"


def base_raw():
    return {
        "seed": 7,
        "system": {"dt": 0.1},
        "dataset": {
            "num_samples": 50,
            "x0_low": [-0.5, -0.05, -0.5, -0.05],
            "x0_high": [0.5, 0.05, 0.5, 0.05],
            "control_low": [0.0, 0.0],
            "control_high": [2.0, 2.0],
            "num_random_steps": 3,
            "feedback": {"kp": 12.0, "kd": 2.0},
            "target": [10.0, 0.0, 10.0, 0.0],
        },
        "library": {
            "grid_resolution": [2, 1],
            "control_low": [0.0, 0.0],
            "control_high": [2.0, 2.0],
            "num_random_steps": 3,
            "feedback": {"kp": 12.0, "kd": 2.0},
            "target": [10.0, 0.0, 10.0, 0.0],
            "initial_state": [0.0, 0.0, 0.0, 0.0],
        },
        "kernel": {
            "state": {"bandwidth": 10.0},
            "control": {"bandwidth": 0.1},
        },
        "embedding": {"regularization": 1e-4},
        "scenario": {
            "horizon": 8,
            "deltas": [0.1, 0.2],
            "goal": {"center": [6.0, 6.0], "radius": 4.0},
            "obstacles": [
                {"rect": [1.0, 2.0, 1.0, 2.0], "active_steps": [3, 4]}
            ],
        },
        "initial_state": [0.0, 0.0, 0.0, 0.0],
        "montecarlo": {"trials": 40, "seed": 99},
    }


class TestParseConfig:
    def test_values_land(self):
        cfg = parse_config(base_raw())
        assert cfg.master_seed == 7
        assert cfg.scenario.horizon == 8
        assert cfg.deltas == (0.1, 0.2)
        assert cfg.dataset.num_samples == 50
        assert cfg.library.num_sequences == 8
        assert cfg.state_kernel.bandwidth == 10.0
        assert cfg.control_kernel.bandwidth == 0.1
        assert cfg.regularization == 1e-4
        assert cfg.trials == 40 and cfg.mc_seed == 99
        assert len(cfg.scenario.obstacles) == 1
        np.testing.assert_array_equal(cfg.initial_state, np.zeros(4))

    def test_scenario_for_builds_task(self):
        cfg = parse_config(base_raw())
        sc = cfg.scenario_for(0.2)
        assert sc.delta == 0.2
        assert sc.horizon == 8
        assert sc.goal.radius == 4.0

    @pytest.mark.parametrize(
        "section",
        ["seed", "system", "dataset", "library", "kernel", "embedding",
         "scenario", "montecarlo"],
    )
    def test_missing_section_named(self, section):
        raw = base_raw()
        del raw[section]
        with pytest.raises(ConfigError, match=section):
            parse_config(raw)

    def test_missing_key_named(self):
        raw = base_raw()
        del raw["dataset"]["num_samples"]
        with pytest.raises(ConfigError, match="num_samples"):
            parse_config(raw)

    def test_empty_deltas_rejected(self):
        raw = base_raw()
        raw["scenario"]["deltas"] = []
        with pytest.raises(ConfigError, match="deltas"):
            parse_config(raw)

    def test_delta_out_of_range_rejected(self):
        raw = base_raw()
        raw["scenario"]["deltas"] = [0.1, 1.5]
        with pytest.raises(ConfigError, match="deltas"):
            parse_config(raw)

    def test_library_size_cap(self):
        raw = base_raw()
        raw["library"]["grid_resolution"] = [30, 30]
        with pytest.raises(ConfigError, match="max_sequences"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("montecarlo", "trials", 2.5),
            ("dataset", "num_samples", 50.9),
            ("dataset", "num_samples", 50.0),
            ("scenario", "horizon", "8"),
            ("dataset", "num_random_steps", True),
            ("library", "max_sequences", 1e4),
            ("library", "grid_resolution", [2.5, 1]),
        ],
    )
    def test_integer_keys_are_not_truncated(self, section, key, value):
        raw = base_raw()
        raw[section][key] = value
        with pytest.raises(
            ConfigError, match=f"invalid {section}.{key}: must be an integer, got"
        ):
            parse_config(raw)

    def test_integer_keys_keep_their_values(self):
        raw = base_raw()
        raw["library"]["grid_resolution"] = [2, 2]
        raw["library"]["max_sequences"] = 64
        cfg = parse_config(raw)
        assert cfg.library.grid_resolution == (2, 2)
        assert cfg.library.max_sequences == 64

    @pytest.mark.parametrize(
        "edit, names",
        [
            (lambda raw: raw["dataset"].update(tail_param="nominal"),
             "'dataset.tail_param'"),
            (lambda raw: raw.update(sed=7), "'sed'"),
            (lambda raw: raw["scenario"]["goal"].update(centre=[1.0, 1.0]),
             "'scenario.goal.centre'"),
            (lambda raw: raw["scenario"]["obstacles"][0].update(steps=[3, 4]),
             r"'scenario.obstacles\[0\].steps'"),
            (lambda raw: raw["kernel"]["state"].update(bandwith=10.0),
             "'kernel.state.bandwith'"),
            (lambda raw: raw["kernel"]["state"].update(bandwidth_mode="fixed"),
             "'kernel.state.bandwidth_mode'"),
            (lambda raw: raw["kernel"]["control"].update(family="gaussian"),
             "'kernel.control.family'"),
            (lambda raw: raw["library"]["feedback"].update(kv=1.0)
             or raw["montecarlo"].update(trails=40),
             "'library.feedback.kv', 'montecarlo.trails'"),
            # the settings the prior means replaced
            (lambda raw: raw["dataset"].update(tail_params="nominal"),
             "'dataset.tail_params'"),
            (lambda raw: raw["library"].update(nominal_mass=1.0),
             "'library.nominal_mass'"),
            (lambda raw: raw["library"].update(nominal_drag=0.457),
             "'library.nominal_drag'"),
        ],
        ids=[
            "section_key", "top_level", "nested", "list_item", "kernel",
            "bandwidth_mode", "family", "two", "dataset.tail_params",
            "library.nominal_mass", "library.nominal_drag",
        ],
    )
    def test_unread_keys_are_named(self, edit, names):
        raw = base_raw()
        edit(raw)
        with pytest.raises(ConfigError, match=f"^unknown config keys? {names}$"):
            parse_config(raw)

    def test_optional_keys_are_read(self):
        # every key the parser reads only when present counts as read
        raw = base_raw()
        raw["prior"] = None
        raw["disturbance"] = {"per_step_std": [0.001, 0.01, 0.001, 0.01]}
        raw["library"]["max_sequences"] = 100
        raw["scenario"]["costs"] = {"state_weights": None, "control_weight": 0.2}
        raw["output"] = {"directory": "elsewhere"}
        assert parse_config(raw).output_dir == "elsewhere"

    def test_prior_disturbance_defaults(self):
        cfg = parse_config(base_raw())
        assert cfg.model.prior.mass.mean == pytest.approx(1.0)
        np.testing.assert_array_equal(
            cfg.model.disturbance.per_step_std, [0.001, 0.01, 0.001, 0.01]
        )

    def test_explicit_prior_parsed(self):
        raw = base_raw()
        raw["prior"] = {
            "mass": {"shape_a": 2.0, "shape_b": 2.0, "offset": 0.75, "scale": 0.5},
            "drag": {"shape_a": 2.0, "shape_b": 5.0, "offset": 0.4, "scale": 0.2},
        }
        cfg = parse_config(raw)
        assert cfg.model.prior.drag.shape_b == 5.0

    def test_stage_digest_ignores_spelled_out_default(self):
        # writing the default value explicitly must not invalidate caches
        raw = base_raw()
        implicit = stage_keys(raw)
        raw["library"]["max_sequences"] = 20000
        assert stage_keys(raw) == implicit

    def test_stage_digest_tracks_real_change(self):
        raw = base_raw()
        before = stage_keys(raw)
        raw["dataset"]["num_samples"] = 51
        after = stage_keys(raw)
        assert after[0] != before[0]
        assert after[1] == before[1]

    def test_keys_of_constructor_defaults_are_pinned(self):
        # base_raw leaves max_sequences, prior, disturbance, costs and output
        # to their constructors' defaults, so a default that drifts moves one
        # of these keys (the library key through the prior means); the
        # dataset key also moves with the dataset's format version (5 here),
        # and the policy key with the dataset key, POLICY_FORMAT_VERSION (7
        # here) and the fields of KernelSpec and Scenario, which it digests
        cfg = parse_config(base_raw())
        ds_key, lib_key = stage_keys(base_raw())
        assert ds_key == "2bb8bbfdf48d75cc0674d73f757866b77f8f90cb0cb515b1f0ae04c1cdbdca6a"
        assert lib_key == "ce54670162075142e92f1f15ce97996195bc9cbed32a56f66b2842ef72fe7bbe"
        policy_key = _policy_key(cfg, [ds_key, cfg.master_seed], lib_key, cfg.deltas[0])
        assert policy_key == (
            "b31902ef4639dd206cdf0857557ced1ad452d6a23cc98e631d64896e232778ac"
        )

    def test_mc_section_does_not_touch_stage_digests(self):
        raw = base_raw()
        before = stage_keys(raw)
        digest = parse_config(raw).digest
        raw["montecarlo"]["trials"] = 99
        after = stage_keys(raw)
        assert after[0] == before[0]
        assert after[1] == before[1]
        assert parse_config(raw).digest != digest


def stage_keys(raw):
    """The dataset and library keys of a raw config."""
    cfg = parse_config(raw)
    return (
        dataset_key(cfg.dataset, cfg.model),
        library_key(cfg.library, cfg.model),
    )


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_raw()))
        cfg = load_config(path)
        assert cfg.master_seed == 7

    def test_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "seed": 7,\n  oops\n}')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_shipped_experiment_config_parses(self):
        cfg = load_config(SHIPPED)
        assert cfg.master_seed == 101
        assert cfg.dataset.num_samples == 1000
        assert cfg.library.num_sequences == 1000
        assert cfg.deltas == (0.05, 0.1, 0.2, 0.3)
        assert cfg.trials == 1000

    def test_shipped_experiment_keys_are_pinned(self):
        # the keys the shipped run's dataset.jsonl and library.jsonl record;
        # another value means a cached shipped run is regenerated, and
        # usually that its bytes moved
        cfg = load_config(SHIPPED)
        assert dataset_key(cfg.dataset, cfg.model) == (
            "d64db32dee49d64710651e31f3f86dc31f0c9826f598724f6b4583572d7823a2"
        )
        assert library_key(cfg.library, cfg.model) == (
            "af642952b172999f5fcdbd19ecaa3894df4cf3923ff2f596954676232d0ca536"
        )
