"""Inter-region transfer-latency model.

When WaterWise moves a job away from its home region it must ship the job's
execution files and dependencies (the paper transfers a ``.tar`` over SCP
between AWS regions) and the delay-tolerance constraint accounts for that
transfer latency.  The model here combines

* a propagation component proportional to the great-circle distance between
  the two regions (long-haul RTT), and
* a serialization component ``package_size / effective_bandwidth`` for the
  job's package.

Both components are deliberately simple — the scheduler only needs transfer
latencies with realistic magnitudes and ordering (nearby European regions
cheap, trans-continental transfers expensive), which is what the paper's
Table 3 reflects.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro._validation import ensure_non_negative, ensure_positive
from repro.regions.region import Region

__all__ = ["TransferLatencyModel"]

_EARTH_RADIUS_KM = 6371.0


def _great_circle_km(a: Region, b: Region) -> float:
    """Great-circle distance between two regions in kilometres."""
    lat1, lon1, lat2, lon2 = map(
        math.radians, (a.latitude, a.longitude, b.latitude, b.longitude)
    )
    d_lat = lat2 - lat1
    d_lon = lon2 - lon1
    h = math.sin(d_lat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(d_lon / 2.0) ** 2
    return 2.0 * _EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


class TransferLatencyModel:
    """Transfer latency between data-center regions.

    Parameters
    ----------
    regions:
        The regions the model covers.
    bandwidth_gbps:
        Effective cross-region throughput for bulk job-package transfers.
        The paper's testbed uses 25 Gb/s NICs, but a single long-haul SCP
        stream achieves only a small fraction of that (tens of MB/s), so the
        default models that realistic effective rate.  Together with the
        short PARSEC-style jobs this is what makes the delay tolerance a
        meaningful knob: transfers are a sizable fraction of execution time.
    base_latency_s:
        Fixed connection set-up overhead applied to any remote transfer.
    per_1000km_s:
        Additional seconds of effective transfer time per 1000 km of
        great-circle distance (protocol round trips over long-haul links).
    """

    def __init__(
        self,
        regions: Sequence[Region],
        bandwidth_gbps: float = 0.25,
        base_latency_s: float = 3.0,
        per_1000km_s: float = 2.0,
        energy_kwh_per_gb: float = 0.001,
    ) -> None:
        if not regions:
            raise ValueError("TransferLatencyModel needs at least one region")
        self.regions = list(regions)
        self.bandwidth_gbps = ensure_positive(bandwidth_gbps, "bandwidth_gbps")
        self.base_latency_s = ensure_non_negative(base_latency_s, "base_latency_s")
        self.per_1000km_s = ensure_non_negative(per_1000km_s, "per_1000km_s")
        self.energy_kwh_per_gb = ensure_non_negative(energy_kwh_per_gb, "energy_kwh_per_gb")
        self._index = {region.key: i for i, region in enumerate(self.regions)}
        n = len(self.regions)
        self._distance_km = np.zeros((n, n))
        for i, a in enumerate(self.regions):
            for j, b in enumerate(self.regions):
                if i != j:
                    self._distance_km[i, j] = _great_circle_km(a, b)

    def distance_km(self, source: str, destination: str) -> float:
        """Great-circle distance between two region keys in kilometres."""
        return float(self._distance_km[self._index[source], self._index[destination]])

    def transfer_time(self, source: str, destination: str, package_gb: float = 1.0) -> float:
        """Seconds to move a job package of ``package_gb`` GB between regions.

        Transfers within the same region are free (the job never leaves its
        home data center).
        """
        package_gb = ensure_non_negative(package_gb, "package_gb")
        if source == destination:
            return 0.0
        if source not in self._index or destination not in self._index:
            missing = source if source not in self._index else destination
            raise KeyError(f"region {missing!r} is not covered by this latency model")
        distance = self.distance_km(source, destination)
        serialization = package_gb * 8.0 / self.bandwidth_gbps
        propagation = self.base_latency_s + self.per_1000km_s * distance / 1000.0
        return serialization + propagation

    def propagation_seconds(self, region_keys: Sequence[str]) -> np.ndarray:
        """(K × K) zero-package transfer times over ``region_keys``, in that order.

        This is the propagation component of :meth:`transfer_time` (the
        serialization component is zero for an empty package), keyed by the
        *caller's* region order — the engine and the vectorized
        scheduler fast paths add ``package_gb × 8 / bandwidth_gbps`` per job
        to reconstruct :meth:`transfer_time` exactly.
        """
        return np.array(
            [[self.transfer_time(a, b, 0.0) for b in region_keys] for a in region_keys]
        )

    def matrix(self, package_gb: float = 1.0) -> np.ndarray:
        """Full (n_regions × n_regions) transfer-time matrix in seconds."""
        n = len(self.regions)
        out = np.zeros((n, n))
        for i, a in enumerate(self.regions):
            for j, b in enumerate(self.regions):
                out[i, j] = self.transfer_time(a.key, b.key, package_gb)
        return out

    def transfer_energy_kwh(self, source: str, destination: str, package_gb: float = 1.0) -> float:
        """Network + endpoint energy (kWh) of moving a job package between regions.

        Zero for same-region placements.  Used by the communication-overhead
        accounting (paper Table 3): the energy is charged at the source and
        destination grids' carbon/water intensity by the caller.
        """
        package_gb = ensure_non_negative(package_gb, "package_gb")
        if source == destination:
            return 0.0
        if source not in self._index or destination not in self._index:
            missing = source if source not in self._index else destination
            raise KeyError(f"region {missing!r} is not covered by this latency model")
        return self.energy_kwh_per_gb * package_gb

    def average_from(self, source: str, package_gb: float = 1.0) -> float:
        """Mean transfer time from ``source`` to every *other* region.

        This is the :math:`L^{avg}_m` term in the slack-manager urgency score
        (paper Eq. 14).
        """
        others = [r.key for r in self.regions if r.key != source]
        if not others:
            return 0.0
        return float(
            np.mean([self.transfer_time(source, dest, package_gb) for dest in others])
        )
