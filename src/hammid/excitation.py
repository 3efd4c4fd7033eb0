"""Pseudo-random excitation on quantized amplitude grids.

Identification inputs are persistently exciting level sequences: a
multiplicative congruential generator produces uniforms which are floor
quantized onto an amplitude grid.  Everything is deterministic in the seed
so any two runs (or implementations) with the same constants produce
identical series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Minimal-standard multiplicative generator constants.
MINSTD_MULTIPLIER = 16807
MINSTD_MODULUS = 2**31 - 1


@dataclass(frozen=True)
class AmplitudeGrid:
    """Evenly spaced signal levels from ``low`` to ``high`` inclusive."""

    low: float
    high: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.high <= self.low:
            raise ValueError(f"need high > low, got [{self.low}, {self.high}]")
        span = (self.high - self.low) / self.step
        if abs(span - round(span)) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(
                f"(high - low) = {self.high - self.low} is not a multiple of step {self.step}"
            )

    @property
    def n_levels(self) -> int:
        return int(round((self.high - self.low) / self.step)) + 1

    def levels(self) -> np.ndarray:
        return self.low + self.step * np.arange(self.n_levels)


@dataclass(frozen=True)
class LcgState:
    """State of the recurrence x' = (MINSTD_MULTIPLIER * x) mod MINSTD_MODULUS."""

    state: int

    def __post_init__(self):
        if not 1 <= self.state <= MINSTD_MODULUS - 1:
            raise ValueError(f"seed must lie in [1, {MINSTD_MODULUS - 1}], got {self.state}")


def lcg_next(s: LcgState) -> tuple[LcgState, float]:
    """Advance the generator one step; returns the new state and a uniform in [0, 1)."""
    nxt = (MINSTD_MULTIPLIER * s.state) % MINSTD_MODULUS
    return LcgState(nxt), nxt / MINSTD_MODULUS


def _lcg_states(seed: int, count: int) -> np.ndarray:
    """The generator's next ``count`` states from ``seed``: x_k = seed * a^k mod m.

    Jump-ahead in int64: a table of a^r mod m for r = 1..B and the state at
    the start of every block of B; every product of two residues stays
    below 2^62.
    """
    block = max(1, math.isqrt(count))
    a, m = MINSTD_MULTIPLIER, MINSTD_MODULUS
    powers = np.array([pow(a, r, m) for r in range(1, block + 1)], dtype=np.int64)
    jump = pow(a, block, m)
    starts = np.array([seed * pow(jump, q, m) % m for q in range(-(-count // block))],
                      dtype=np.int64)
    return (starts[:, None] * powers % m).ravel()[:count]


def generate_excitation(
    grid: AmplitudeGrid, n_samples: int, seed: int, hold: int = 1
) -> np.ndarray:
    """Draw ``n_samples`` grid levels; each drawn level is held ``hold`` samples.

    A uniform u maps to level floor(u * n_levels), folded into the last
    level at the (unreachable) top edge, so levels are hit uniformly.  The
    draws are those of repeated :func:`lcg_next` from ``LcgState(seed)``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if hold < 1:
        raise ValueError(f"hold must be >= 1, got {hold}")
    state = LcgState(seed)  # rejects zero/invalid seeds
    levels = grid.n_levels
    u = _lcg_states(state.state, -(-n_samples // hold)) / MINSTD_MODULUS
    index = np.minimum((u * levels).astype(np.int64), levels - 1)
    values = np.asarray(grid.low + grid.step * index, dtype=float)
    return np.repeat(values, hold)[:n_samples]
