"""Experiment configs, closed-form checks on the ladder family, determinism."""

import time
from fractions import Fraction

import pytest

from toricfib.errors import DocumentError
from toricfib.experiments import (
    ExperimentConfig,
    config_instances,
    run_delta_experiment,
    run_monotonicity_experiment,
    run_multiplicity_experiment,
)


class TestConfig:

    def test_defaults_are_usable(self):
        cfg = ExperimentConfig()
        assert cfg.epsilon == 1
        assert cfg.box == 4

    def test_rational_fields_are_coerced(self):
        cfg = ExperimentConfig(epsilon="1/3", alpha="2/5")
        assert cfg.epsilon == Fraction(1, 3)
        assert cfg.alpha == Fraction(2, 5)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0},
        {"epsilon": Fraction(3, 2)},
        {"alpha": 0},
        {"alpha": 1},
        {"box": 3},
        {"families": ("ladder", "nope")},
    ])
    def test_bad_values_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_instances_come_sorted_and_unique(self):
        insts = config_instances(ExperimentConfig(families=("ladder", "wps")))
        names = [i.name for i in insts]
        assert names == sorted(names)
        assert len(names) == len(set(names)) == 17


class TestMultiplicity:

    def test_strict_threshold_keeps_only_the_smallest_ladder(self):
        rep = run_multiplicity_experiment(
            ExperimentConfig(epsilon=1, families=("ladder",)))
        assert rep.max_over_eps_lc == 2
        by_name = {r.name: r for r in rep.rows}
        assert by_name["ladder_k2"].mld == 1
        assert by_name["ladder_k2"].eps_lc
        assert by_name["ladder_k2"].max_multiplicity == 2
        assert by_name["ladder_k12"].mld == Fraction(1, 6)
        assert not by_name["ladder_k12"].eps_lc
        assert by_name["ladder_k12"].max_multiplicity == 12

    def test_multiplicity_tracks_epsilon(self):
        rep = run_multiplicity_experiment(
            ExperimentConfig(epsilon=Fraction(2, 5), families=("ladder",)))
        assert rep.max_over_eps_lc == 5

    def test_point_bases_count_as_multiplicity_one(self):
        rep = run_multiplicity_experiment(
            ExperimentConfig(epsilon=1, families=("wps",)))
        assert all(r.max_multiplicity == 1 for r in rep.rows)
        assert rep.max_over_eps_lc == 1


class TestDelta:

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3)])
    def test_ladder_infimum_is_alpha_over_k(self, alpha):
        rep = run_delta_experiment(ExperimentConfig(
            epsilon=Fraction(2, 5), alpha=alpha, families=("ladder",)))
        for row in rep.rows:
            k = int(row.name.removeprefix("ladder_k"))
            assert row.delta == alpha / k
            assert row.exact
        assert rep.min_over_eps_lc == alpha / 5

    def test_point_bases_are_skipped(self):
        rep = run_delta_experiment(ExperimentConfig(families=("wps",)))
        assert rep.rows == ()
        assert rep.min_over_eps_lc is None

    def test_more_box_directions_than_the_budget_are_refused(self):
        """products has a rank-two target: box 158 gives 317^2 = 100489
        directions, refused by base_lct_infimum before any scan."""
        start = time.perf_counter()
        with pytest.raises(DocumentError) as exc:
            run_delta_experiment(ExperimentConfig(families=("products",), box=158))
        assert time.perf_counter() - start < 1
        assert str(exc.value) == ("--box 158 gives 100489 oracle directions, "
                                  "more than the 100000 allowed")


class TestMonotonicity:

    def test_laws_hold_on_a_seeded_sample(self):
        cfg = ExperimentConfig(families=("ladder", "twisted"), seed=5)
        rep = run_monotonicity_experiment(cfg, count=25)
        assert len(rep.rows) == 25
        assert rep.all_hold
        for row in rep.rows:
            assert 0 <= row.low <= row.high <= 1
            assert 0 < row.alpha < 1

    def test_same_seed_reproduces_the_report(self):
        cfg = ExperimentConfig(seed=11)
        assert (run_monotonicity_experiment(cfg, count=8)
                == run_monotonicity_experiment(cfg, count=8))

    def test_point_only_selection_is_rejected(self):
        with pytest.raises(ValueError):
            run_monotonicity_experiment(
                ExperimentConfig(families=("wps",)), count=3)
