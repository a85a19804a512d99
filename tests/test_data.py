"""Tests for dataset/library generation and JSON-lines persistence."""

import numpy as np
import pytest

from kernelcc.data import (
    ControlLibrary,
    DataLoadError,
    Dataset,
    DatasetGenerationError,
    DatasetGenConfig,
    LibraryGenConfig,
    generate_dataset,
    generate_library,
    load_dataset,
    load_library,
    pd_gain,
    save_dataset,
    save_library,
)
from kernelcc.systems import (
    BetaSpec,
    DisturbanceSpec,
    ParamPrior,
    PlanarQuadrotor,
    QuadrotorParams,
    quadrotor_step,
)

NOMINAL = QuadrotorParams(1.0, 0.005)


def noisy_model():
    return PlanarQuadrotor()


def deterministic_model(mass=1.0, drag=0.0):
    return PlanarQuadrotor(
        prior=ParamPrior.point(mass, drag), disturbance=DisturbanceSpec.zero(4)
    )


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

    def test_rejects_unknown_tail_params(self):
        with pytest.raises(ValueError):
            DatasetGenConfig(num_samples=5, horizon=10, tail_params="frozen")

    def test_nominal_tails_replay_on_mean_system(self):
        # in nominal mode the feedback tail is computed noiselessly at the
        # prior-mean parameters, so replaying the recorded controls on that
        # system must reproduce the feedback law exactly
        cfg = DatasetGenConfig(num_samples=5, horizon=12, tail_params="nominal")
        model = noisy_model()
        ds = generate_dataset(cfg, model, master_seed=9)
        mean = (model.mean_params().mass, model.mean_params().drag)
        for i in range(5):
            x = ds.initial_states[i]
            for t in range(cfg.num_random_steps):
                x = quadrotor_step(x, ds.controls[i, t], np.zeros(4), mean)
            for t in range(cfg.num_random_steps, 12):
                u = cfg.feedback_gain @ (x - cfg.target)
                np.testing.assert_allclose(ds.controls[i, t], u, atol=1e-12)
                x = quadrotor_step(x, u, np.zeros(4), mean)

    def test_tail_modes_share_initial_draws(self):
        # both modes draw x0 and the leading controls from the same stream
        # positions, so those coincide at equal seeds
        sampled = generate_dataset(
            DatasetGenConfig(num_samples=6, horizon=10), noisy_model(), master_seed=4
        )
        nominal = generate_dataset(
            DatasetGenConfig(num_samples=6, horizon=10, tail_params="nominal"),
            noisy_model(),
            master_seed=4,
        )
        np.testing.assert_array_equal(sampled.initial_states, nominal.initial_states)
        np.testing.assert_array_equal(
            sampled.controls[:, :3], nominal.controls[:, :3]
        )
        assert np.any(sampled.controls[:, 3:] != nominal.controls[:, 3:])


class TestGenerateLibrary:
    def test_grid_two_by_two_single_step(self):
        cfg = LibraryGenConfig(
            horizon=10, grid_resolution=(2, 2), num_random_steps=1
        )
        lib = generate_library(cfg, deterministic_model(), NOMINAL)
        assert lib.num_sequences == 4
        np.testing.assert_array_equal(
            lib.sequences[:, 0, :],
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
        )

    def test_degenerate_grid_uses_midpoint(self):
        cfg = LibraryGenConfig(
            horizon=10, grid_resolution=(1, 1), num_random_steps=3
        )
        lib = generate_library(cfg, deterministic_model(), NOMINAL)
        assert lib.num_sequences == 1
        np.testing.assert_array_equal(lib.sequences[0, :3], np.full((3, 2), 0.5))

    def test_sequences_pairwise_distinct(self):
        cfg = LibraryGenConfig(horizon=8, grid_resolution=(2, 2), num_random_steps=2)
        lib = generate_library(cfg, deterministic_model(), NOMINAL)
        flat = lib.sequences.reshape(lib.num_sequences, -1)
        assert lib.num_sequences == 16
        assert len({tuple(row) for row in flat}) == 16

    def test_size_cap(self):
        cfg = LibraryGenConfig(
            horizon=8, grid_resolution=(10, 10), num_random_steps=3, max_sequences=100
        )
        with pytest.raises(ValueError):
            generate_library(cfg, deterministic_model(), NOMINAL)

    def test_deterministic(self):
        cfg = LibraryGenConfig(horizon=10, grid_resolution=(2, 2))
        a = generate_library(cfg, deterministic_model(), NOMINAL)
        b = generate_library(cfg, deterministic_model(), NOMINAL)
        np.testing.assert_array_equal(a.sequences, b.sequences)

    def test_feedback_tail_state_dependent(self):
        # different leading grid points give different feedback tails
        cfg = LibraryGenConfig(horizon=10, grid_resolution=(2, 2), num_random_steps=1)
        lib = generate_library(cfg, deterministic_model(), NOMINAL)
        assert np.any(lib.sequences[0, 1:] != lib.sequences[3, 1:])


def fragile_model():
    # a Beta(0.05, 1) mass draws a near-zero mass now and then, and u / mass
    # then overflows the quadratic drag within a few steps; feedback and
    # replay draw their masses independently, so either phase can diverge
    return PlanarQuadrotor(prior=ParamPrior(mass=BetaSpec(0.05, 1.0, 1e-300, 1.0)))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
class TestGenerationDivergence:
    # per-sample phases at seed 0: . F4 . . R6 . F5 . (F feedback, R replay,
    # number the 1-based step); at seed 2: . . . R6 F6 . F6 .
    @pytest.mark.parametrize(
        "model, cfg, seed, index, step",
        [
            (fragile_model(), DatasetGenConfig(num_samples=8, horizon=6), 0, 1, 4),
            (fragile_model(), DatasetGenConfig(num_samples=8, horizon=6), 2, 3, 6),
            (
                noisy_model(),
                DatasetGenConfig(
                    num_samples=4,
                    horizon=6,
                    control_high=np.full(2, 1e200),
                    tail_params="nominal",
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
        assert (exc.value.sample_index, exc.value.step) == (index, step)

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
            generate_library(cfg, deterministic_model(), NOMINAL)
        assert (exc.value.sample_index, exc.value.step) == (1, 2)


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
        lib = generate_library(cfg, deterministic_model(), NOMINAL)
        path = tmp_path / "lib.jsonl"
        save_library(lib, path)
        back = load_library(path)
        np.testing.assert_array_equal(back.sequences, lib.sequences)

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
        lines[0] = lines[0].replace('"format_version":1', '"format_version":99')
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
        with pytest.raises(DataLoadError, match="expected 6 records"):
            load_dataset(path)


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
