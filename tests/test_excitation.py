import numpy as np
import pytest

from hammid.excitation import (
    MINSTD_MODULUS,
    MINSTD_MULTIPLIER,
    AmplitudeGrid,
    LcgState,
    generate_excitation,
    lcg_next,
)


class TestLcg:
    def test_one_step_from_seed_one(self):
        state, u = lcg_next(LcgState(1))
        assert state.state == 16807
        assert u == 16807 / MINSTD_MODULUS

    def test_stays_in_multiplicative_group(self):
        state = LcgState(MINSTD_MODULUS - 1)
        for _ in range(100):
            state, u = lcg_next(state)
            assert 1 <= state.state <= MINSTD_MODULUS - 1
            assert 0.0 <= u < 1.0

    def test_uniform_mean(self):
        state = LcgState(12345)
        total = 0.0
        for _ in range(10_000):
            state, u = lcg_next(state)
            total += u
        assert abs(total / 10_000 - 0.5) < 0.02

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            LcgState(0)
        with pytest.raises(ValueError):
            LcgState(MINSTD_MODULUS)


class TestAmplitudeGrid:
    def test_level_count(self):
        assert AmplitudeGrid(130, 170, 2).n_levels == 21
        assert AmplitudeGrid(4, 10, 1).n_levels == 7

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            AmplitudeGrid(170, 130, 2)
        with pytest.raises(ValueError):
            AmplitudeGrid(0, 10, -1)
        with pytest.raises(ValueError):
            AmplitudeGrid(0, 10, 3)  # span not a multiple of step


class TestGenerateExcitation:
    def test_samples_on_grid(self):
        grid = AmplitudeGrid(130, 170, 2)
        x = generate_excitation(grid, 2000, seed=1)
        levels = set(grid.levels())
        assert set(x) <= levels
        residues = (x - 130) / 2
        np.testing.assert_allclose(residues, np.round(residues), atol=1e-12)
        assert x.min() >= 130 and x.max() <= 170

    def test_single_sample(self):
        x = generate_excitation(AmplitudeGrid(4, 10, 1), 1, seed=7)
        assert x.shape == (1,)
        assert x[0] in set(AmplitudeGrid(4, 10, 1).levels())

    def test_whiteness_default_seed(self):
        x = generate_excitation(AmplitudeGrid(130, 170, 2), 1000, seed=1)
        x0 = x - x.mean()
        c0 = x0 @ x0
        for tau in range(1, 21):
            rho = (x0[:-tau] @ x0[tau:]) / c0
            assert abs(rho) < 0.1, f"autocorrelation {rho:.3f} at lag {tau}"

    def test_determinism(self):
        grid = AmplitudeGrid(4, 10, 1)
        a = generate_excitation(grid, 500, seed=42)
        b = generate_excitation(grid, 500, seed=42)
        np.testing.assert_array_equal(a, b)
        c = generate_excitation(grid, 500, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed,low,high,step", [(1, 130, 170, 2), (2, 4, 10, 1)])
    def test_level_coverage_shipped_seeds(self, seed, low, high, step):
        grid = AmplitudeGrid(low, high, step)
        x = generate_excitation(grid, 50 * grid.n_levels, seed=seed)
        assert set(np.round((x - low) / step).astype(int)) == set(range(grid.n_levels))

    def test_hold_repeats_levels(self):
        x = generate_excitation(AmplitudeGrid(0, 10, 1), 12, seed=5, hold=3)
        blocks = x.reshape(4, 3)
        assert np.all(blocks == blocks[:, :1])
        held = generate_excitation(AmplitudeGrid(0, 10, 1), 4, seed=5, hold=1)
        np.testing.assert_array_equal(blocks[:, 0], held)

    def test_invalid_arguments(self):
        grid = AmplitudeGrid(0, 10, 1)
        with pytest.raises(ValueError):
            generate_excitation(grid, 0, seed=1)
        with pytest.raises(ValueError):
            generate_excitation(grid, 10, seed=0)
        with pytest.raises(ValueError):
            generate_excitation(grid, 10, seed=1, hold=0)


def _lcg_fold(grid, n_samples, seed, hold):
    """The schedule one draw at a time: a left fold of lcg_next."""
    state, levels = LcgState(seed), grid.n_levels
    out = np.empty(n_samples)
    for k in range(0, n_samples, hold):
        state, u = lcg_next(state)
        out[k:k + hold] = grid.low + grid.step * min(int(u * levels), levels - 1)
    return out


@pytest.mark.parametrize("grid", [
    AmplitudeGrid(130, 170, 2), AmplitudeGrid(4.0, 10.0, 0.5),
    AmplitudeGrid(-1, 1, 1), AmplitudeGrid(0.1, 0.7, 0.2),
], ids=["int", "half-step", "three-levels", "inexact-step"])
def test_schedule_is_the_lcg_fold(grid):
    """The jump-ahead draws equal repeated lcg_next bit for bit, for short
    and long schedules, the largest seeds and lengths not divisible by hold."""
    for n_samples in (1, 2, 7, 33, 1070, 4097):
        for seed in (1, 12345, MINSTD_MODULUS - 2, MINSTD_MODULUS - 1):
            for hold in (1, 2, 3, 8):
                x = generate_excitation(grid, n_samples, seed, hold)
                assert x.dtype == np.float64
                assert x.tobytes() == _lcg_fold(grid, n_samples, seed, hold).tobytes(), (
                    n_samples, seed, hold)
