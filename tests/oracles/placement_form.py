"""Reference dense constraint blocks of the WaterWise placement form.

The straightforward way to lay out Eq. 9–13 as arrays: allocate the dense
``(M+N) × M·N`` (hard) or ``(M+N) × 2·M·N`` (soft) blocks and scatter the
coefficients in.  :func:`repro.core.objective.build_placement_form` builds the
same blocks as CSR on demand instead; tests hold its densified and CSR blocks
to these arrays byte for byte.
"""

from __future__ import annotations

import numpy as np


def dense_placement_blocks(
    latency_ratio: np.ndarray, servers_required: np.ndarray, soft: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(a_ub, a_eq)``: capacity then delay rows, and the assignment rows."""
    m_jobs, n_regions = latency_ratio.shape
    n_x = m_jobs * n_regions
    n_vars = 2 * n_x if soft else n_x

    # Eq. 9: each job is placed in exactly one region.
    a_eq = np.zeros((m_jobs, n_vars))
    rows = np.repeat(np.arange(m_jobs), n_regions)
    cols = np.arange(n_x)
    a_eq[rows, cols] = 1.0

    # Eq. 10 (capacity) then Eq. 11/13 (delay) rows.
    a_ub = np.zeros((n_regions + m_jobs, n_vars))
    servers = np.asarray(servers_required, dtype=float)
    capacity_rows = np.tile(np.arange(n_regions), m_jobs)
    a_ub[capacity_rows, cols] = np.repeat(servers, n_regions)
    delay_rows = n_regions + rows
    a_ub[delay_rows, cols] = latency_ratio.ravel()
    if soft:
        a_ub[delay_rows, n_x + cols] = -1.0
    return a_ub, a_eq
