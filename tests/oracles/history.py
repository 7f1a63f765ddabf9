"""Reference history learner: one dict per round in a bounded deque.

The per-key form of :class:`repro.core.history.HistoryLearner` — every
round's normalized intensities stored as ``{region: value}``, the reference
term one ``np.mean`` over the list of a region's recorded values.  The
``src/`` learner keeps the window as arrays instead and must return the same
bytes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np


class DequeHistoryLearner:
    """Sliding-window normalized intensity history per region."""

    def __init__(self, window: int = 10) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._carbon: deque[dict[str, float]] = deque(maxlen=self.window)
        self._water: deque[dict[str, float]] = deque(maxlen=self.window)

    def reset(self) -> None:
        self._carbon.clear()
        self._water.clear()

    @property
    def rounds_recorded(self) -> int:
        return len(self._carbon)

    def observe(
        self,
        region_keys: Sequence[str],
        carbon_intensity: Sequence[float],
        water_intensity: Sequence[float],
    ) -> None:
        if not (len(region_keys) == len(carbon_intensity) == len(water_intensity)):
            raise ValueError("region_keys, carbon_intensity and water_intensity must align")
        carbon = np.asarray(carbon_intensity, dtype=float)
        water = np.asarray(water_intensity, dtype=float)
        if np.any(carbon < 0) or np.any(water < 0):
            raise ValueError("intensities must be non-negative")
        carbon_max = carbon.max() if carbon.size and carbon.max() > 0 else 1.0
        water_max = water.max() if water.size and water.max() > 0 else 1.0
        self._carbon.append({k: float(c / carbon_max) for k, c in zip(region_keys, carbon)})
        self._water.append({k: float(w / water_max) for k, w in zip(region_keys, water)})

    def reference(self, region_keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        co2_ref = np.zeros(len(region_keys))
        h2o_ref = np.zeros(len(region_keys))
        if not self._carbon:
            return co2_ref, h2o_ref
        for idx, key in enumerate(region_keys):
            carbon_values = [entry[key] for entry in self._carbon if key in entry]
            water_values = [entry[key] for entry in self._water if key in entry]
            if carbon_values:
                co2_ref[idx] = float(np.mean(carbon_values))
            if water_values:
                h2o_ref[idx] = float(np.mean(water_values))
        return co2_ref, h2o_ref
