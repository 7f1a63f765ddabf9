"""History learner: per-region reference terms for the MILP objective.

The paper augments the placement objective with "the historical carbon
footprint and water footprint (normalized) of every region in a time window"
(Eq. 8), weighted by λ_ref.  The learner keeps a sliding window of the last
``window`` scheduling rounds; at each round it records every region's carbon
and water intensity normalized by that round's maximum across regions, and
the reference term is the per-region mean over the window.  A region that has
recently been carbon- or water-expensive therefore carries a standing penalty
even at an instant where its current intensity happens to dip — smoothing
decisions against short-lived fluctuations.

The window is stored as (regions × window) arrays whose columns are the
recorded rounds in chronological order, so a reference is one row-wise
``mean``.  Each row is reduced exactly like ``np.mean`` over the list of that
region's values, oldest first, so the result is the same to the last bit as
the per-key form (``tests/oracles/history.py``).  Running sums or a rotating
ring buffer would change the summation order, and with it the bits.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["HistoryLearner"]


class HistoryLearner:
    """Sliding-window normalized intensity history per region."""

    def __init__(self, window: int = 10) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.reset()

    def reset(self) -> None:
        """Forget all recorded rounds."""
        self._row: dict[str, int] = {}
        self._carbon = np.zeros((0, self.window))
        self._water = np.zeros((0, self.window))
        #: Whether a region was part of the round recorded in that column.
        self._seen = np.zeros((0, self.window), dtype=bool)
        self._rounds = 0

    @property
    def rounds_recorded(self) -> int:
        return self._rounds

    # -- recording -------------------------------------------------------------------
    def observe(
        self,
        region_keys: Sequence[str],
        carbon_intensity: Sequence[float],
        water_intensity: Sequence[float],
    ) -> None:
        """Record one scheduling round's per-region intensities.

        Values are normalized by the round's maximum so the reference terms
        stay in ``[0, 1]`` regardless of units.
        """
        if not (len(region_keys) == len(carbon_intensity) == len(water_intensity)):
            raise ValueError("region_keys, carbon_intensity and water_intensity must align")
        carbon = np.asarray(carbon_intensity, dtype=float)
        water = np.asarray(water_intensity, dtype=float)
        if np.any(carbon < 0) or np.any(water < 0):
            raise ValueError("intensities must be non-negative")
        carbon_max = carbon.max() if carbon.size and carbon.max() > 0 else 1.0
        water_max = water.max() if water.size and water.max() > 0 else 1.0
        self.observe_normalized(region_keys, carbon / carbon_max, water / water_max)

    def observe_normalized(
        self,
        region_keys: Sequence[str],
        carbon_norm: np.ndarray,
        water_norm: np.ndarray,
    ) -> None:
        """Record a round whose values :meth:`observe` has already normalized."""
        rows = self._rows_for(region_keys, grow=True)
        if self._rounds == self.window:
            # Drop the oldest round; the columns stay in chronological order.
            for block in (self._carbon, self._water, self._seen):
                block[:, :-1] = block[:, 1:]
            column = self.window - 1
        else:
            column = self._rounds
            self._rounds += 1
        self._seen[:, column] = False
        self._seen[rows, column] = True
        self._carbon[rows, column] = carbon_norm
        self._water[rows, column] = water_norm

    def _rows_for(self, region_keys: Sequence[str], grow: bool = False) -> list[int]:
        """Row of each key; unknown keys get a new row (``grow``) or ``-1``."""
        if grow:
            new = [key for key in dict.fromkeys(region_keys) if key not in self._row]
            if new:
                for key in new:
                    self._row[key] = len(self._row)
                pad = ((0, len(new)), (0, 0))
                self._carbon = np.pad(self._carbon, pad)
                self._water = np.pad(self._water, pad)
                self._seen = np.pad(self._seen, pad)
        return [self._row.get(key, -1) for key in region_keys]

    # -- reference terms ---------------------------------------------------------------
    def reference(self, region_keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Mean normalized (carbon, water) history per region.

        Regions never observed (or before any round was recorded) get 0 —
        i.e. no historical penalty.
        """
        co2_ref = np.zeros(len(region_keys))
        h2o_ref = np.zeros(len(region_keys))
        if not self._rounds:
            return co2_ref, h2o_ref
        rows = np.array(self._rows_for(region_keys), dtype=np.int64)
        known = np.flatnonzero(rows >= 0)
        rows = rows[known]
        span = slice(0, self._rounds)
        seen = self._seen[rows, span]
        if seen.all():
            co2_ref[known] = self._carbon[rows, span].mean(axis=1)
            h2o_ref[known] = self._water[rows, span].mean(axis=1)
            return co2_ref, h2o_ref
        # Some region missed some rounds: average only the rounds it was in.
        for position, row, mask in zip(known.tolist(), rows.tolist(), seen):
            if mask.any():
                co2_ref[position] = np.mean(self._carbon[row, span][mask])
                h2o_ref[position] = np.mean(self._water[row, span][mask])
        return co2_ref, h2o_ref
