"""Tests for dataset/library generation and JSON-lines persistence."""

import base64
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kernelcc.cli import cmd_generate
from kernelcc.config import parse_config
from kernelcc.data import (
    FORMAT_VERSION,
    ControlLibrary,
    DataLoadError,
    Dataset,
    DatasetGenerationError,
    DatasetGenConfig,
    LibraryGenConfig,
    _save_jsonl,
    generate_dataset,
    generate_library,
    load_dataset,
    load_library,
    pd_gain,
    read_header,
    save_dataset,
    save_library,
)
from kernelcc.serialize import array_digest, canonical_json
from kernelcc.systems import (
    BetaSpec,
    DisturbanceSpec,
    ParamPrior,
    PlanarQuadrotor,
    quadrotor_step,
)

ROOT = Path(__file__).resolve().parent.parent


def noisy_model():
    return PlanarQuadrotor()


def deterministic_model(mass=1.0, drag=0.0):
    return PlanarQuadrotor(
        prior=ParamPrior.point(mass, drag), disturbance=DisturbanceSpec.zero(4)
    )


def nominal_model():
    # the system the library tests complete their sequences on
    return deterministic_model(1.0, 0.005)


class TestPdGain:
    def test_structure(self):
        gain = pd_gain(2.0, 3.0)
        np.testing.assert_array_equal(
            gain, [[-2.0, -3.0, 0.0, 0.0], [0.0, 0.0, -2.0, -3.0]]
        )

    def test_pulls_toward_target(self):
        gain = pd_gain(2.0, 3.0)
        x = np.array([0.0, 0.0, 0.0, 0.0])
        target = np.array([10.0, 0.0, 10.0, 0.0])
        u = gain @ (x - target)
        assert u[0] > 0 and u[1] > 0


class TestDatasetGenConfig:
    def test_rejects_unordered_box(self):
        with pytest.raises(ValueError):
            DatasetGenConfig(
                num_samples=5, horizon=10, x0_low=np.ones(4), x0_high=-np.ones(4)
            )

    def test_rejects_random_steps_beyond_horizon(self):
        with pytest.raises(ValueError):
            DatasetGenConfig(num_samples=5, horizon=3, num_random_steps=3)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            DatasetGenConfig(num_samples=0, horizon=10)

    @pytest.mark.parametrize(
        "settings",
        [
            pytest.param(
                lambda: DatasetGenConfig(horizon=5, num_samples=2.5), id="num_samples=2.5"
            ),
            pytest.param(
                lambda: DatasetGenConfig(horizon=5, num_samples=True), id="num_samples=true"
            ),
            pytest.param(
                lambda: DatasetGenConfig(horizon=5.5, num_samples=2), id="horizon=5.5"
            ),
            pytest.param(
                lambda: DatasetGenConfig(horizon="5", num_samples=2), id="horizon='5'"
            ),
            pytest.param(
                lambda: LibraryGenConfig(horizon=5, num_random_steps=1.5),
                id="num_random_steps=1.5",
            ),
            pytest.param(
                lambda: LibraryGenConfig(horizon=5, grid_resolution=(2.5, 1)),
                id="grid_resolution=(2.5,1)",
            ),
            pytest.param(
                lambda: LibraryGenConfig(horizon=5, max_sequences=1e4),
                id="max_sequences=1e4",
            ),
        ],
    )
    def test_counts_must_be_integers(self, settings):
        # a float, a bool or a string is not truncated or compared, but refused
        with pytest.raises(ValueError, match="must be an integer, got"):
            settings()


class TestControlLawSpec:
    @pytest.mark.parametrize(
        "settings",
        [
            # a one-point grid keeps the library under its size cap
            pytest.param(
                lambda **law: DatasetGenConfig(num_samples=5, **law), id="dataset"
            ),
            pytest.param(
                lambda **law: LibraryGenConfig(grid_resolution=(1, 1), **law),
                id="library",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "law",
        [
            pytest.param({"num_random_steps": 8}, id="random_steps=horizon"),
            pytest.param(
                {"control_low": [0.0, 2.0], "control_high": [1.0, 1.0]},
                id="unordered_box",
            ),
            pytest.param({"control_low": [0.0]}, id="box_shape"),
            pytest.param({"feedback_gain": np.zeros((2, 3))}, id="gain_shape"),
            pytest.param({"target": np.zeros(3)}, id="target_shape"),
        ],
    )
    def test_dataset_and_library_check_the_law_alike(self, settings, law):
        with pytest.raises(ValueError):
            settings(horizon=8, **law)


class TestGenerateDataset:
    def test_shapes_and_boxes(self):
        cfg = DatasetGenConfig(num_samples=30, horizon=15)
        ds = generate_dataset(cfg, noisy_model(), master_seed=3)
        assert ds.num_samples == 30
        assert ds.controls.shape == (30, 15, 2)
        assert ds.trajectories.shape == (30, 15, 4)
        assert np.all(ds.initial_states >= cfg.x0_low)
        assert np.all(ds.initial_states <= cfg.x0_high)
        randomized = ds.controls[:, : cfg.num_random_steps]
        assert np.all(randomized >= 0.0) and np.all(randomized <= 1.0)

    def test_deterministic_given_seed(self):
        cfg = DatasetGenConfig(num_samples=10, horizon=8)
        a = generate_dataset(cfg, noisy_model(), master_seed=11)
        b = generate_dataset(cfg, noisy_model(), master_seed=11)
        np.testing.assert_array_equal(a.initial_states, b.initial_states)
        np.testing.assert_array_equal(a.controls, b.controls)
        np.testing.assert_array_equal(a.trajectories, b.trajectories)

    def test_seed_changes_content(self):
        cfg = DatasetGenConfig(num_samples=10, horizon=8)
        a = generate_dataset(cfg, noisy_model(), master_seed=11)
        b = generate_dataset(cfg, noisy_model(), master_seed=12)
        assert np.any(a.trajectories != b.trajectories)

    def test_per_sample_seeds_are_stable_under_m(self):
        # growing the dataset must not change earlier samples
        small = generate_dataset(
            DatasetGenConfig(num_samples=5, horizon=8), noisy_model(), master_seed=2
        )
        large = generate_dataset(
            DatasetGenConfig(num_samples=9, horizon=8), noisy_model(), master_seed=2
        )
        np.testing.assert_array_equal(
            small.trajectories, large.trajectories[:5]
        )

    def test_noiseless_trajectory_replays_controls(self):
        # with a point prior and no noise, the recorded trajectory equals a
        # deterministic replay of the recorded control sequence
        cfg = DatasetGenConfig(num_samples=4, horizon=10)
        ds = generate_dataset(cfg, deterministic_model(1.1, 0.3), master_seed=5)
        for i in range(4):
            x = ds.initial_states[i]
            for t in range(10):
                x = quadrotor_step(x, ds.controls[i, t], np.zeros(4), (1.1, 0.3))
                np.testing.assert_allclose(ds.trajectories[i, t], x, atol=1e-12)

    def test_feedback_section_tracks_target(self):
        # under feedback the quadrotor must head toward the target, so late
        # positions exceed early ones
        cfg = DatasetGenConfig(num_samples=6, horizon=15)
        ds = generate_dataset(cfg, noisy_model(), master_seed=8)
        assert np.all(ds.trajectories[:, -1, 0] > ds.trajectories[:, 2, 0])

    def test_nominal_tails_replay_on_mean_system(self):
        # the feedback tail is computed noiselessly at the prior-mean
        # parameters, so replaying the recorded controls on that system must
        # reproduce the feedback law exactly
        cfg = DatasetGenConfig(num_samples=5, horizon=12)
        model = noisy_model()
        ds = generate_dataset(cfg, model, master_seed=9)
        mean = (model.mean_params()["mass"], model.mean_params()["drag"])
        for i in range(5):
            x = ds.initial_states[i]
            for t in range(cfg.num_random_steps):
                x = quadrotor_step(x, ds.controls[i, t], np.zeros(4), mean)
            for t in range(cfg.num_random_steps, 12):
                u = cfg.feedback_gain @ (x - cfg.target)
                np.testing.assert_allclose(ds.controls[i, t], u, atol=1e-12)
                x = quadrotor_step(x, u, np.zeros(4), mean)

    def test_samples_complete_as_the_library_does(self):
        # with the x0 box the library's initial state and the control box the
        # library's one grid point, every sample's controls are the library's
        # one sequence: both are completed on one nominal system
        start = np.array([0.1, -0.02, 0.3, 0.01])
        point = np.array([0.7, 1.3])
        law = dict(
            horizon=12,
            control_low=point,
            control_high=point,
            feedback_gain=pd_gain(12.0, 2.0),
        )
        lib = generate_library(
            LibraryGenConfig(**law, grid_resolution=(1, 1), initial_state=start),
            noisy_model(),
        )
        ds = generate_dataset(
            DatasetGenConfig(**law, num_samples=7, x0_low=start, x0_high=start),
            noisy_model(),
            master_seed=3,
        )
        assert lib.num_sequences == 1
        for controls in ds.controls:
            np.testing.assert_array_equal(controls, lib.sequences[0])
        # the trajectories are replays on drawn systems, not the nominal one
        assert len({row.tobytes() for row in ds.trajectories}) == 7


class TestGenerateLibrary:
    def test_grid_two_by_two_single_step(self):
        cfg = LibraryGenConfig(
            horizon=10, grid_resolution=(2, 2), num_random_steps=1
        )
        lib = generate_library(cfg, nominal_model())
        assert lib.num_sequences == 4
        np.testing.assert_array_equal(
            lib.sequences[:, 0, :],
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
        )

    def test_degenerate_grid_uses_midpoint(self):
        cfg = LibraryGenConfig(
            horizon=10, grid_resolution=(1, 1), num_random_steps=3
        )
        lib = generate_library(cfg, nominal_model())
        assert lib.num_sequences == 1
        np.testing.assert_array_equal(lib.sequences[0, :3], np.full((3, 2), 0.5))

    def test_sequences_pairwise_distinct(self):
        cfg = LibraryGenConfig(horizon=8, grid_resolution=(2, 2), num_random_steps=2)
        lib = generate_library(cfg, nominal_model())
        flat = lib.sequences.reshape(lib.num_sequences, -1)
        assert lib.num_sequences == 16
        assert len({tuple(row) for row in flat}) == 16

    def test_size_cap(self):
        with pytest.raises(ValueError, match="max_sequences=100"):
            LibraryGenConfig(
                horizon=8, grid_resolution=(10, 10), num_random_steps=3, max_sequences=100
            )

    def test_deterministic(self):
        cfg = LibraryGenConfig(horizon=10, grid_resolution=(2, 2))
        a = generate_library(cfg, nominal_model())
        b = generate_library(cfg, nominal_model())
        np.testing.assert_array_equal(a.sequences, b.sequences)

    def test_feedback_tail_state_dependent(self):
        # different leading grid points give different feedback tails
        cfg = LibraryGenConfig(horizon=10, grid_resolution=(2, 2), num_random_steps=1)
        lib = generate_library(cfg, nominal_model())
        assert np.any(lib.sequences[0, 1:] != lib.sequences[3, 1:])


# a prior that moves the mass mean (to 0.94), and one that keeps both
# means but spreads the mass otherwise
OTHER_PRIOR = ParamPrior(mass=BetaSpec(2.0, 3.0, 0.7, 0.6))
SAME_MEANS_PRIOR = ParamPrior(mass=BetaSpec(3.0, 3.0, 0.75, 0.5))
# dynamics change -> does it change the dataset key, the library key
KEY_CHANGES = {
    "dt": (dict(dt=0.2), True, True),
    "prior": (dict(prior=OTHER_PRIOR), True, True),
    "disturbance": (dict(disturbance=DisturbanceSpec.zero(4)), True, False),
    "nominal": (dict(prior=SAME_MEANS_PRIOR), True, False),
}
KEYED_LIBRARY = LibraryGenConfig(horizon=6, grid_resolution=(2, 1), num_random_steps=1)


class TestKeys:
    @pytest.mark.parametrize(
        "model_args, dataset_changes, library_changes",
        KEY_CHANGES.values(),
        ids=KEY_CHANGES.keys(),
    )
    def test_keys_cover_dynamics(self, model_args, dataset_changes, library_changes):
        ds_cfg = DatasetGenConfig(num_samples=3, horizon=4)

        def keys(model):
            return (
                generate_dataset(ds_cfg, model, master_seed=1).config_digest,
                generate_library(KEYED_LIBRARY, model).config_digest,
            )

        base = keys(PlanarQuadrotor())
        changed = keys(PlanarQuadrotor(**model_args))
        assert (base[0] != changed[0], base[1] != changed[1]) == (
            dataset_changes,
            library_changes,
        )

    @pytest.mark.parametrize(
        "prior",
        [ParamPrior(), ParamPrior.point(1.0, 0.4 + 0.2 * 2.0 / 7.0), SAME_MEANS_PRIOR],
        ids=["default", "point_at_means", "same_means"],
    )
    def test_library_depends_on_the_prior_means_alone(self, prior):
        base = generate_library(KEYED_LIBRARY, PlanarQuadrotor())
        lib = generate_library(KEYED_LIBRARY, PlanarQuadrotor(prior=prior))
        assert lib.config_digest == base.config_digest
        np.testing.assert_array_equal(lib.sequences, base.sequences)

    @pytest.mark.parametrize(
        "prior",
        [OTHER_PRIOR, ParamPrior(drag=BetaSpec(2.0, 5.0, 0.5, 0.2))],
        ids=["mass_mean", "drag_mean"],
    )
    def test_library_moves_with_a_prior_mean(self, prior):
        base = generate_library(KEYED_LIBRARY, PlanarQuadrotor())
        lib = generate_library(KEYED_LIBRARY, PlanarQuadrotor(prior=prior))
        assert lib.config_digest != base.config_digest
        assert np.any(lib.sequences != base.sequences)


def wide_mass_model():
    # masses from 0.01 to 2.01 about a nominal 1.01: leading controls of a
    # few hundred push the nominal system past where its quadratic drag
    # overflows, or a lighter drawn system on replay, so either phase can
    # diverge first
    return PlanarQuadrotor(prior=ParamPrior(mass=BetaSpec(1.0, 1.0, 0.01, 2.0)))


WIDE_CONTROLS = DatasetGenConfig(
    num_samples=8, horizon=12, control_high=np.full(2, 600.0)
)


class TestGenerationDivergence:
    # per-sample phases at seed 10: . F12 F12 . . R11 . . (F feedback, R
    # replay, number the 1-based step); at seed 4: . R10 F12 . . . R9 .
    @pytest.mark.parametrize(
        "model, cfg, seed, index, step",
        [
            (wide_mass_model(), WIDE_CONTROLS, 10, 1, 12),
            (wide_mass_model(), WIDE_CONTROLS, 4, 1, 10),
            (
                noisy_model(),
                DatasetGenConfig(
                    num_samples=4, horizon=6, control_high=np.full(2, 1e200)
                ),
                0,
                0,
                2,
            ),
        ],
        ids=["feedback_before_later_replay", "replay_before_later_feedback", "huge_controls"],
    )
    def test_dataset_reports_lowest_sample(self, model, cfg, seed, index, step):
        with pytest.raises(DatasetGenerationError) as exc:
            generate_dataset(cfg, model, master_seed=seed)
        assert (exc.value.index, exc.value.step) == (index, step)

    def test_library_reports_lowest_sequence(self):
        # sequence 0 starts with the zero control and stays finite; sequence 1
        # leaves a 1e199 velocity whose drag overflows at step 2
        cfg = LibraryGenConfig(
            horizon=6,
            grid_resolution=(2, 2),
            num_random_steps=1,
            control_high=np.full(2, 1e200),
        )
        with pytest.raises(DatasetGenerationError) as exc:
            generate_library(cfg, nominal_model())
        assert (exc.value.index, exc.value.step) == (1, 2)


class TestPersistence:
    def make_dataset(self):
        cfg = DatasetGenConfig(num_samples=6, horizon=5)
        return generate_dataset(cfg, noisy_model(), master_seed=21)

    def test_dataset_round_trip_exact(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.initial_states, ds.initial_states)
        np.testing.assert_array_equal(back.controls, ds.controls)
        np.testing.assert_array_equal(back.trajectories, ds.trajectories)
        assert back.master_seed == ds.master_seed
        assert back.config_digest == ds.config_digest

    def test_save_is_byte_stable(self, tmp_path):
        ds = self.make_dataset()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_library_round_trip(self, tmp_path):
        cfg = LibraryGenConfig(horizon=5, grid_resolution=(2, 1), num_random_steps=2)
        lib = generate_library(cfg, nominal_model())
        path = tmp_path / "lib.jsonl"
        save_library(lib, path)
        back = load_library(path)
        np.testing.assert_array_equal(back.sequences, lib.sequences)
        # a library has no state dimension, so its header records none
        assert "n" not in json.loads(path.read_text().splitlines()[0])

    def test_load_peak_stays_below_two_and_a_half_file_sizes(self, tmp_path):
        # the file is read a record line at a time, so no copy of it is held
        # whole; a loader that does hold one peaks at three file sizes
        cfg = DatasetGenConfig(num_samples=400, horizon=15)
        path = tmp_path / "ds.jsonl"
        save_dataset(generate_dataset(cfg, noisy_model(), master_seed=3), path)
        load_dataset(path)
        tracemalloc.start()
        try:
            load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataLoadError):
            load_dataset(path)

    def test_tampered_dims_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"n":4', '"n":3')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError):
            load_dataset(path)

    def test_malformed_record_names_line(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=":4:"):
            load_dataset(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        current = f'"format_version":{FORMAT_VERSION}'
        assert current in lines[0]
        lines[0] = lines[0].replace(current, '"format_version":99')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match="format_version"):
            load_dataset(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        with pytest.raises(DataLoadError, match="kind"):
            load_library(path)

    def test_truncated_file_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        expected = ':4: expected the record {"x0":"<base64>"}'
        with pytest.raises(DataLoadError, match=expected):
            load_dataset(path)

    def test_extra_record_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[-1]]) + "\n")
        with pytest.raises(DataLoadError, match=":5: a record after the last field"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "u, reason",
        [
            ("x", "field 'u' is not numeric"),
            ({"a": 1}, "field 'u' is not numeric"),
            ([[1.0], [1.0, 2.0]], "field 'u' is not numeric"),
        ],
    )
    def test_non_numeric_field_names_line(self, tmp_path, u, reason):
        # the record of u, the second line, holds something other than a
        # base64 string
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[1] = canonical_json({"u": u})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=f":2: {reason}") as exc:
            load_dataset(path)
        assert exc.value.line == 2

    # the line of each field's record: the fields are in sorted order
    LINES = {"u": 2, "x": 3, "x0": 4}

    def edit_record(self, tmp_path, name, edit):
        """A saved dataset whose record of field ``name`` is replaced by
        {name: edit(its value)}."""
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        index = self.LINES[name] - 1
        lines[index] = canonical_json({name: edit(json.loads(lines[index])[name])})
        path.write_text("\n".join(lines) + "\n")
        return ds, path

    def test_records_are_canonical_base64_float64_rows(self, tmp_path):
        # one record per field, each the whole array's bytes:
        # np.frombuffer(base64.b64decode(value), "<f8").reshape(shape)
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(self.LINES)
        arrays = {"u": ds.controls, "x": ds.trajectories, "x0": ds.initial_states}
        for name, array in arrays.items():
            line = lines[self.LINES[name] - 1]
            rec = json.loads(line)
            assert line == canonical_json(rec) and list(rec) == [name]
            back = np.frombuffer(base64.b64decode(rec[name]), "<f8")
            np.testing.assert_array_equal(back.reshape(array.shape), array)

    def test_misnamed_record_names_line(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        expected = ':2: expected the record {"u":"<base64>"}'
        with pytest.raises(DataLoadError, match=expected):
            load_dataset(path)

    def test_wrong_byte_count_names_line_field_and_shape(self, tmp_path):
        # valid base64 of one float64 too few
        def short(value):
            return base64.b64encode(base64.b64decode(value)[:-8]).decode()

        _, path = self.edit_record(tmp_path, "x", short)
        with pytest.raises(
            DataLoadError,
            match=r":3: field 'x' holds 952 bytes, expected 960 for float64 "
            r"shape \(6, 5, 4\)",
        ) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "value",
        [
            "A" * 42 + "*" + "=",
            "A" * 41 + " " + "==",
            "A" * 42 + "é" + "=",
            "A" * 43,
        ],
        ids=["outside_alphabet", "space", "non_ascii", "bad_padding"],
    )
    def test_value_that_is_not_strict_base64_is_rejected(self, tmp_path, value):
        _, path = self.edit_record(tmp_path, "x0", lambda _: value)
        with pytest.raises(
            DataLoadError, match=":4: field 'x0' is not numeric: not base64"
        ):
            load_dataset(path)

    def test_format_2_decimal_record_is_not_numeric(self, tmp_path):
        # the field's values as format 2 wrote them, decimal text, under a
        # format-4 header
        ds = self.make_dataset()
        _, path = self.edit_record(tmp_path, "x0", lambda _: ds.initial_states)
        with pytest.raises(
            DataLoadError, match=":4: field 'x0' is not numeric: not a string"
        ):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused(self, tmp_path, value):
        # the loader refuses the field against its own record line: u, x and
        # x0 are lines 2 to 4
        def poisoned(x):
            x = np.frombuffer(base64.b64decode(x), "<f8").copy()
            x[37] = value
            return base64.b64encode(x).decode()

        _, path = self.edit_record(tmp_path, "x", poisoned)
        with pytest.raises(DataLoadError, match=":3: non-finite values in x$"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_is_not_saved(self, tmp_path, value):
        # a Dataset or ControlLibrary refuses one already; the writer checks
        # every array it is handed all the same
        seq = np.zeros((2, 3, 2))
        seq[1, 2, 0] = value
        path = tmp_path / "lib.jsonl"
        with pytest.raises(ValueError, match="non-finite value .* cannot be serialized"):
            _save_jsonl(path, "library", {"u": seq}, 0, "test")
        assert not path.exists()

    @pytest.mark.parametrize("record", ["5", "[1, 2]", '"x0 u x"', "null"])
    def test_record_not_an_object_names_line(self, tmp_path, record):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = record
        path.write_text("\n".join(lines) + "\n")
        expected = ':4: expected the record {"x0":"<base64>"}'
        with pytest.raises(DataLoadError, match=expected):
            load_dataset(path)

    def test_negative_dimension_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"m":2', '"m":-2')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=":1: negative dimension m=-2"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("m", 2.5),
            ("N", 5.9),
            ("M", 6.0),
            ("master_seed", 21.7),
            ("n", "4"),
            ("master_seed", True),
            ("M", None),
        ],
    )
    def test_non_integer_header_value_rejected(self, tmp_path, key, value):
        ds = self.make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), key: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=f":1: header {key}=.* not an integer"):
            load_dataset(path)

    def test_library_without_sequences_rejected(self, tmp_path):
        # an empty record under a header that counts zero sequences
        cfg = LibraryGenConfig(horizon=5, grid_resolution=(2, 1), num_random_steps=2)
        path = tmp_path / "lib.jsonl"
        save_library(generate_library(cfg, nominal_model()), path)
        header = json.loads(path.read_text().splitlines()[0])
        path.write_text(json.dumps({**header, "P": 0}) + '\n{"u":""}\n')
        with pytest.raises(DataLoadError, match=":1: library must contain"):
            load_library(path)

    def test_fractional_library_count_rejected(self, tmp_path):
        cfg = LibraryGenConfig(horizon=5, grid_resolution=(2, 1), num_random_steps=2)
        path = tmp_path / "lib.jsonl"
        save_library(generate_library(cfg, nominal_model()), path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"P":4', '"P":4.0')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=":1: header P=4.0 is not an integer"):
            load_library(path)


class TestReadHeader:
    def saved(self, tmp_path):
        ds = TestPersistence().make_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        return ds, path

    def test_header_of_an_intact_file(self, tmp_path):
        ds, path = self.saved(tmp_path)
        header = read_header(path, "dataset")
        assert header.kind == "dataset"
        assert header.count == ds.num_samples
        assert header.master_seed == ds.master_seed
        assert header.config_digest == ds.config_digest
        assert header.shapes == {"x0": (4,), "u": (5, 2), "x": (5, 4)}

    def test_sha256_covers_the_rest_of_the_file(self, tmp_path):
        _, path = self.saved(tmp_path)
        head, records = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        sha256 = header.pop("sha256")
        content = canonical_json(header).encode() + b"\n" + records
        assert hashlib.sha256(content).hexdigest() == sha256

    def test_records_are_hashed_not_parsed(self, tmp_path):
        # records that are not JSON under a sha256 that matches them: the
        # header reader accepts the file, the full loader names the line
        _, path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["sha256"]
        records = "".join("{not json\n" for _ in lines[1:])
        sha256 = hashlib.sha256(
            (canonical_json(header) + "\n" + records).encode()
        ).hexdigest()
        path.write_text(canonical_json({**header, "sha256": sha256}) + "\n" + records)
        assert read_header(path, "dataset").count == 6
        with pytest.raises(DataLoadError, match=":2: expected the record"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [*lines[:3], lines[3].replace("1", "2", 1), *lines[4:]],
            lambda lines: [lines[0].replace('"master_seed":21', '"master_seed":22'),
                           *lines[1:]],
            lambda lines: lines[:-1],
        ],
        ids=["record_digit", "header_value", "last_record_dropped"],
    )
    def test_any_edit_breaks_the_sha256(self, tmp_path, edit):
        _, path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        edited = edit(lines)
        assert edited != lines
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(DataLoadError, match=":1: file content does not match"):
            read_header(path, "dataset")

    def test_full_loader_checks_the_sha256_last(self, tmp_path):
        _, path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("1", "2", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=":1: file content does not match"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda head: head.replace('"m":2', '"m":-2'), "negative dimension m=-2"),
            (lambda head: head.replace('"M":6', '"M":6.0'), "header M=6.0 is not"),
            (lambda head: head.replace('"kind":"dataset"', '"kind":"library"'),
             "expected kind 'dataset'"),
            (lambda head: head.replace(',"sha256":', ',"sha":'),
             "incomplete header: 'sha256'"),
            (lambda head: "\n" + head, "malformed header"),
        ],
        ids=["negative_dimension", "fractional_count", "kind", "no_sha256",
             "blank_first_line"],
    )
    def test_header_checked_like_the_full_loader(self, tmp_path, edit, reason):
        _, path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([edit(lines[0]), *lines[1:]]) + "\n")
        for read in (lambda p: read_header(p, "dataset"), load_dataset):
            with pytest.raises(DataLoadError, match=f":1: {reason}"):
                read(path)

    def test_cached_file_edited_before_it_is_parsed(self, tmp_path):
        # generate finds the file current by its header, then one digit of a
        # record changes before a stage asks for the records: the parse
        # hashes the bytes it parses, so it refuses them
        raw = json.loads((ROOT / "configs" / "experiment.json").read_text())
        raw["dataset"]["num_samples"] = 6
        raw["library"]["grid_resolution"] = [2, 1]
        cfg = parse_config(raw)
        cmd_generate(cfg, tmp_path)
        ds, _ = cmd_generate(cfg, tmp_path)
        path = tmp_path / "dataset.jsonl"
        lines = path.read_text().splitlines()
        edited = lines[3].replace("1", "2", 1)
        assert edited != lines[3]
        path.write_text("\n".join([*lines[:3], edited, *lines[4:]]) + "\n")
        with pytest.raises(DataLoadError, match=":1: file content does not match"):
            ds.get()

    def test_empty_or_missing_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataLoadError, match=":1: empty file"):
            read_header(path, "library")
        with pytest.raises(DataLoadError, match="cannot read file"):
            read_header(tmp_path / "nope.jsonl", "library")


class TestDatasetInvariants:
    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            Dataset(
                initial_states=np.zeros((3, 4)),
                controls=np.zeros((2, 5, 2)),
                trajectories=np.zeros((3, 5, 4)),
                master_seed=0,
                config_digest="x",
            )

    def test_rejects_non_finite(self):
        x = np.zeros((2, 5, 4))
        x[1, 2, 0] = np.inf
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 4)), np.zeros((2, 5, 2)), x, 0, "x")

    def test_library_needs_sequences(self):
        with pytest.raises(ValueError):
            ControlLibrary(np.zeros((0, 5, 2)), 0, "x")


class TestLibraryContentDigest:
    def make_library(self):
        cfg = LibraryGenConfig(horizon=6, grid_resolution=(2, 2), num_random_steps=1)
        return generate_library(cfg, nominal_model())

    def test_is_a_plain_property(self):
        # instrumentation wraps the getter through property.fget
        assert isinstance(ControlLibrary.__dict__["content_digest"], property)

    def test_computed_once_per_library(self, monkeypatch):
        lib = self.make_library()
        calls = []

        def counting(obj):
            calls.append(obj)
            return array_digest(obj)

        monkeypatch.setattr("kernelcc.data.array_digest", counting)
        first = lib.content_digest
        assert [lib.content_digest for _ in range(3)] == [first] * 3
        assert len(calls) == 1
        assert first == array_digest(lib.sequences)

    def test_sequences_are_read_only(self):
        lib = self.make_library()
        digest = lib.content_digest
        with pytest.raises(ValueError, match="read-only"):
            lib.sequences[0, 0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            lib.sequences.reshape(-1)[0] = 5.0
        assert lib.content_digest == array_digest(lib.sequences) == digest

    def test_caller_array_does_not_alias(self):
        seq = np.zeros((2, 3, 2))
        lib = ControlLibrary(seq, 0, "x")
        digest = lib.content_digest
        seq[1, 2, 1] = 4.0
        assert lib.sequences[1, 2, 1] == 0.0
        assert lib.content_digest == array_digest(lib.sequences) == digest
        assert seq.flags.writeable
