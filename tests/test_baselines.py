"""PoW/PoS/DPoS winner races against analytic weight oracles."""

import warnings

import numpy as np
import pytest

from fuzzychain.baselines import POW_BLOCK_DRAWS, run_dpos, run_pos, run_pow
from fuzzychain.config import sample_dist
from fuzzychain.metrics import gini
from fuzzychain.rng import substream

BAD_WEIGHTS = [float("nan"), float("inf"), 0.0, -1.0]


def ids(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


class TestPow:
    def test_lone_miner_wins_everything(self):
        t = run_pow(["m0"], [2.0], 50, substream(0, "pow"))
        assert t.as_dict() == {"m0": 50}

    def test_three_to_one_power_ratio(self):
        # race of exponentials: P(win) = p_i / sum(p)
        t = run_pow(["fast", "slow"], [3.0, 1.0], 100_000, substream(1, "pow"))
        assert t.as_dict()["fast"] / t.total() == pytest.approx(0.75, abs=0.01)
        assert t.as_dict()["slow"] / t.total() == pytest.approx(0.25, abs=0.01)

    def test_subnormal_powers_keep_their_ratio(self):
        # 1 / 1e-310 overflows to inf; the race must still follow the ratio
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = run_pow(["a", "b", "c"], [1e-310, 2e-310, 3e-310], 6000, substream(4, "pow"))
        shares = [t.as_dict()[m] / t.total() for m in "abc"]
        assert shares == pytest.approx([1 / 6, 2 / 6, 3 / 6], abs=0.02)

    def test_blocks_of_rounds_draw_the_same_stream_as_one_draw(self):
        n = POW_BLOCK_DRAWS // 20 + 1  # 19 rounds per block, so 50 rounds take 3 blocks
        powers = np.arange(1.0, n + 1.0)
        t = run_pow(ids("m", n), powers, 50, substream(5, "pow"))
        times = substream(5, "pow").exponential(powers.max() / powers, size=(50, n))
        assert t.counts().tolist() == np.bincount(times.argmin(axis=1), minlength=n).tolist()

    def test_counts_sum_to_rounds(self):
        t = run_pow(ids("m", 7), np.arange(1.0, 8.0), 321, substream(2, "pow"))
        assert t.total() == 321

    def test_same_seed_same_table(self):
        powers = np.arange(1.0, 6.0)
        t1 = run_pow(ids("m", 5), powers, 500, substream(3, "pow"))
        t2 = run_pow(ids("m", 5), powers, 500, substream(3, "pow"))
        assert t1.as_dict() == t2.as_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            run_pow([], [], 10, substream(0, "pow"))
        with pytest.raises(ValueError, match="hash_power"):
            run_pow(["m"], [0.0], 10, substream(0, "pow"))

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_non_finite_or_non_positive_power_raises(self, bad):
        with pytest.raises(ValueError, match=r"hash_power must be finite and positive.* m1"):
            run_pow(["m0", "m1"], [1.0, bad], 10, substream(0, "pow"))

    def test_heavy_tailed_powers_concentrate_wins(self):
        # Pareto(1.5) powers over 100 miners at 100 rounds: inequality in
        # the 0.45..0.75 band seen for mining concentration
        powers = sample_dist({"type": "pareto", "shape": 1.5, "scale": 1.0},
                             100, substream(11, "exp2", "participants", "pow"))
        t = run_pow([f"m{i:04d}" for i in range(100)], powers, 100,
                    substream(11, "exp2", 0, "pow"))
        assert 0.5992 - 0.15 <= gini(t.counts()) <= 0.5992 + 0.15


class TestPos:
    def test_equal_stakes_are_uniform(self):
        t = run_pos(ids("s", 5), np.full(5, 4.0), 100_000, substream(4, "pos"))
        for c in t.counts():
            assert c / t.total() == pytest.approx(0.2, abs=0.01)

    def test_nine_to_one_stakes(self):
        t = run_pos(["rich", "poor"], [9.0, 1.0], 10_000, substream(5, "pos"))
        assert t.as_dict()["rich"] / t.total() == pytest.approx(0.9, abs=0.02)

    def test_counts_sum_to_rounds(self):
        assert run_pos(ids("s", 9), np.arange(1.0, 10.0), 777,
                       substream(6, "pos")).total() == 777

    def test_skewed_stakes_land_near_reported_inequality(self):
        stakes = sample_dist({"type": "pareto", "shape": 3.0, "scale": 1.0},
                             100, substream(5, "exp2", "participants", "pos"))
        t = run_pos([f"s{i:04d}" for i in range(100)], stakes, 100,
                    substream(5, "exp2", 0, "pos"))
        assert 0.4934 - 0.15 <= gini(t.counts()) <= 0.4934 + 0.15

    def test_stake_validation(self):
        with pytest.raises(ValueError, match="stake"):
            run_pos(["s"], [-1.0], 10, substream(0, "pos"))

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_non_finite_or_non_positive_stake_raises(self, bad):
        with pytest.raises(ValueError, match=r"stake must be finite and positive.* s1"):
            run_pos(["s0", "s1"], [1.0, bad], 10, substream(0, "pos"))


class TestDpos:
    def test_identical_delegates_are_uniform(self):
        t = run_dpos(ids("d", 4), np.full(4, 2.0), np.full(4, 0.8), 100_000,
                     substream(7, "dpos"))
        for c in t.counts():
            assert c / t.total() == pytest.approx(0.25, abs=0.01)

    def test_stake_and_reputation_trade_off(self):
        # (10, 0.5) and (5, 1.0) have equal products, hence equal shares
        t = run_dpos(["big-lazy", "small-sharp"], [10.0, 5.0], [0.5, 1.0], 10_000,
                     substream(8, "dpos"))
        assert t.as_dict()["big-lazy"] / t.total() == pytest.approx(0.5, abs=0.02)

    def test_counts_sum_to_rounds(self):
        assert run_dpos(ids("d", 6), np.arange(1.0, 7.0), np.full(6, 0.9), 555,
                        substream(9, "dpos")).total() == 555

    def test_is_pos_on_stake_times_reputation(self):
        drng = substream(12, "participants", "dpos")
        stakes = sample_dist({"type": "lognormal", "mu": 0.0, "sigma": 1.0}, 50, drng)
        reps = sample_dist({"type": "uniform", "lo": 0.5, "hi": 1.0}, 50, drng)
        dpos = run_dpos(ids("d", 50), stakes, reps, 400, substream(12, "dpos"))
        pos = run_pos(ids("d", 50), stakes * reps, 400, substream(12, "dpos"))
        assert dpos.as_dict() == pos.as_dict()

    def test_default_population_lands_near_reported_inequality(self):
        drng = substream(11, "exp2", "participants", "dpos")
        stakes = sample_dist({"type": "constant", "value": 1.0}, 100, drng)
        reps = sample_dist({"type": "uniform", "lo": 0.5, "hi": 1.0}, 100, drng)
        t = run_dpos([f"d{i:04d}" for i in range(100)], stakes, reps, 100,
                     substream(11, "exp2", 0, "dpos"))
        assert 0.4126 - 0.15 <= gini(t.counts()) <= 0.4126 + 0.15

    def test_reputation_validation(self):
        with pytest.raises(ValueError, match="reputation"):
            run_dpos(["d"], [1.0], [0.0], 10, substream(0, "dpos"))
        with pytest.raises(ValueError, match="reputation must be at most 1"):
            run_dpos(["d"], [1.0], [1.2], 10, substream(0, "dpos"))

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("weight", ["stake", "reputation"])
    def test_non_finite_or_non_positive_weight_raises(self, weight, bad):
        weights = {"stake": [1.0, 1.0], "reputation": [0.5, 0.5]}
        weights[weight][1] = bad
        with pytest.raises(ValueError, match=rf"{weight} must be finite and positive.* d1"):
            run_dpos(["d0", "d1"], weights["stake"], weights["reputation"], 10,
                     substream(0, "dpos"))


@pytest.mark.parametrize("race, weights", [
    (run_pow, ([1.0, 2.0],)),
    (run_pos, ([1.0, 2.0, 3.0, 4.0],)),
    (run_dpos, ([1.0, 2.0], [0.5, 0.5])),
    (run_dpos, ([1.0, 2.0, 3.0], [0.5, 0.5])),
], ids=["pow-short", "pos-long", "dpos-short", "dpos-stake-only"])
def test_weights_must_match_the_ids(race, weights):
    # too few weights would otherwise leave the last categories at zero wins
    with pytest.raises(ValueError, match=r"expected shape \(3,\)"):
        race(ids("x", 3), *weights, 10, substream(0, "pos"))
