"""PoW/PoS/DPoS winner races against analytic weight oracles."""

import pytest

from fuzzychain.baselines import Delegate, Miner, StakeValidator, run_dpos, run_pos, run_pow
from fuzzychain.config import sample_dist
from fuzzychain.metrics import gini
from fuzzychain.rng import substream


class TestPow:
    def test_lone_miner_wins_everything(self):
        t = run_pow([Miner("m0", 2.0)], 50, substream(0, "pow"))
        assert t.as_dict() == {"m0": 50}

    def test_three_to_one_power_ratio(self):
        # race of exponentials: P(win) = p_i / sum(p)
        miners = [Miner("fast", 3.0), Miner("slow", 1.0)]
        t = run_pow(miners, 100_000, substream(1, "pow"))
        assert t.as_dict()["fast"] / t.total() == pytest.approx(0.75, abs=0.01)
        assert t.as_dict()["slow"] / t.total() == pytest.approx(0.25, abs=0.01)

    def test_counts_sum_to_rounds(self):
        t = run_pow([Miner(f"m{i}", float(i + 1)) for i in range(7)], 321,
                    substream(2, "pow"))
        assert t.total() == 321

    def test_same_seed_same_table(self):
        miners = [Miner(f"m{i}", float(i + 1)) for i in range(5)]
        t1 = run_pow(miners, 500, substream(3, "pow"))
        t2 = run_pow(miners, 500, substream(3, "pow"))
        assert t1.as_dict() == t2.as_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            run_pow([], 10, substream(0, "pow"))
        with pytest.raises(ValueError):
            Miner("m", 0.0)

    def test_heavy_tailed_powers_concentrate_wins(self):
        # Pareto(1.5) powers over 100 miners at 100 rounds: inequality in
        # the 0.45..0.75 band seen for mining concentration
        powers = sample_dist({"type": "pareto", "shape": 1.5, "scale": 1.0},
                             100, substream(11, "exp2", "participants", "pow"))
        miners = [Miner(f"m{i:04d}", float(p)) for i, p in enumerate(powers)]
        t = run_pow(miners, 100, substream(11, "exp2", 0, "pow"))
        assert 0.5992 - 0.15 <= gini(t.counts()) <= 0.5992 + 0.15


class TestPos:
    def test_equal_stakes_are_uniform(self):
        vs = [StakeValidator(f"s{i}", 4.0) for i in range(5)]
        t = run_pos(vs, 100_000, substream(4, "pos"))
        for c in t.counts():
            assert c / t.total() == pytest.approx(0.2, abs=0.01)

    def test_nine_to_one_stakes(self):
        vs = [StakeValidator("rich", 9.0), StakeValidator("poor", 1.0)]
        t = run_pos(vs, 10_000, substream(5, "pos"))
        assert t.as_dict()["rich"] / t.total() == pytest.approx(0.9, abs=0.02)

    def test_counts_sum_to_rounds(self):
        vs = [StakeValidator(f"s{i}", float(i + 1)) for i in range(9)]
        assert run_pos(vs, 777, substream(6, "pos")).total() == 777

    def test_skewed_stakes_land_near_reported_inequality(self):
        stakes = sample_dist({"type": "pareto", "shape": 3.0, "scale": 1.0},
                             100, substream(5, "exp2", "participants", "pos"))
        vs = [StakeValidator(f"s{i:04d}", float(s)) for i, s in enumerate(stakes)]
        t = run_pos(vs, 100, substream(5, "exp2", 0, "pos"))
        assert 0.4934 - 0.15 <= gini(t.counts()) <= 0.4934 + 0.15

    def test_stake_validation(self):
        with pytest.raises(ValueError):
            StakeValidator("s", -1.0)


class TestDpos:
    def test_identical_delegates_are_uniform(self):
        ds = [Delegate(f"d{i}", 2.0, 0.8) for i in range(4)]
        t = run_dpos(ds, 100_000, substream(7, "dpos"))
        for c in t.counts():
            assert c / t.total() == pytest.approx(0.25, abs=0.01)

    def test_stake_and_reputation_trade_off(self):
        # (10, 0.5) and (5, 1.0) have equal products, hence equal shares
        ds = [Delegate("big-lazy", 10.0, 0.5), Delegate("small-sharp", 5.0, 1.0)]
        t = run_dpos(ds, 10_000, substream(8, "dpos"))
        assert t.as_dict()["big-lazy"] / t.total() == pytest.approx(0.5, abs=0.02)

    def test_counts_sum_to_rounds(self):
        ds = [Delegate(f"d{i}", float(i + 1), 0.9) for i in range(6)]
        assert run_dpos(ds, 555, substream(9, "dpos")).total() == 555

    def test_default_population_lands_near_reported_inequality(self):
        drng = substream(11, "exp2", "participants", "dpos")
        stakes = sample_dist({"type": "constant", "value": 1.0}, 100, drng)
        reps = sample_dist({"type": "uniform", "lo": 0.5, "hi": 1.0}, 100, drng)
        ds = [Delegate(f"d{i:04d}", float(s), float(r))
              for i, (s, r) in enumerate(zip(stakes, reps))]
        t = run_dpos(ds, 100, substream(11, "exp2", 0, "dpos"))
        assert 0.4126 - 0.15 <= gini(t.counts()) <= 0.4126 + 0.15

    def test_reputation_validation(self):
        with pytest.raises(ValueError):
            Delegate("d", 1.0, 0.0)
        with pytest.raises(ValueError):
            Delegate("d", 1.0, 1.2)
