"""Optimal transmit beam, reflection phases, and amplification factor.

The transmit beam matched to the first-hop array response and per-surface
co-phasing make every reflection coefficient sum coherently, after which
the active surface runs its amplifier at the per-element power boundary.
Surface k's co-phasing phasors depart_k * conj(arrive_k) = conj(w_k) put
every term of A_k on the positive real axis, so |A_k| is its element count.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import HopGeometry, PhaseConfig, surface_weights
from .params import LinkBudget, SystemParams


def optimal_transmit_beam(channel_vec: np.ndarray, tx_power: float) -> np.ndarray:
    """Matched-filter beam w = sqrt(P) h / ||h||, so ||w||^2 = P."""
    h = np.asarray(channel_vec)
    norm = float(np.linalg.norm(h))
    if norm == 0.0:
        raise ValueError("cannot beamform onto a zero channel vector")
    return math.sqrt(tx_power) * h / norm


def amplification_factor(airs_index: int, budget: LinkBudget, p: SystemParams) -> float:
    """Largest feasible common gain under the per-element power budget.

    Assumes the optimal beam and co-phased reflections, so the incident
    per-element power is c_t * np_kappa_i**(2*(l-1)); the budget then
    binds with equality.
    """
    incident = math.exp(budget.log_c_t + 2.0 * (airs_index - 1) * budget.log_np_kappa_i)
    return math.sqrt(p.amp_power / (incident + p.noise_power))


def optimal_configuration(airs_index: int, geometry: list[HopGeometry],
                          p: SystemParams, budget: LinkBudget) -> tuple[PhaseConfig, np.ndarray]:
    """Jointly optimal (phases, beam) for a given active-surface position."""
    weights, bs_tx, _ = surface_weights(geometry, p, airs_index)
    phases = PhaseConfig(tuple(map(np.conj, weights)), amplification_factor(airs_index, budget, p))
    return phases, optimal_transmit_beam(bs_tx, p.tx_power)
