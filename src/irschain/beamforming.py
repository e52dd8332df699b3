"""Optimal transmit beam, reflection phases, and amplification factor.

The transmit beam matched to the first-hop array response and per-surface
co-phasing make every reflection coefficient sum coherently, after which
the active surface runs its amplifier at the per-element power boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (
    HopGeometry,
    PhaseConfig,
    TWO_PI,
    bs_departure_response,
    surface_response_pairs,
)
from .params import LinkBudget, SystemParams, derive_link_budget


def optimal_transmit_beam(channel_vec: np.ndarray, tx_power: float) -> np.ndarray:
    """Matched-filter beam w = sqrt(P) h / ||h||, so ||w||^2 = P."""
    h = np.asarray(channel_vec)
    norm = float(np.linalg.norm(h))
    if norm == 0.0:
        raise ValueError("cannot beamform onto a zero channel vector")
    return math.sqrt(tx_power) * h / norm


def optimal_reflection_phases(arrive: np.ndarray, depart: np.ndarray) -> np.ndarray:
    """Per-element phases that co-phase arrive/depart responses.

    Each reflected term picks up arg(arrive_n * conj(depart_n)); negating
    it aligns all summands on the positive real axis, so the reflection
    coefficient sum |depart^H diag(e^{j theta}) arrive| equals the element
    count exactly.  Returned phases are canonicalized to [0, 2*pi).
    """
    arrive = np.asarray(arrive)
    depart = np.asarray(depart)
    if arrive.shape != depart.shape:
        raise ValueError("arrival/departure responses must have equal length")
    theta = np.mod(-np.angle(arrive * depart.conj()), TWO_PI)
    theta[theta >= TWO_PI] = 0.0
    return theta


def reflection_coefficient_sum(arrive, depart, theta) -> complex:
    """A_k = depart^H diag(e^{j theta}) arrive for one surface."""
    return complex(np.sum(np.conj(depart) * np.exp(1j * theta) * arrive))


def amplification_factor(airs_index: int, budget: LinkBudget, p: SystemParams) -> float:
    """Largest feasible common gain under the per-element power budget.

    Assumes the optimal beam and co-phased reflections, so the incident
    per-element power is c_t * np_kappa_i**(2*(l-1)); the budget then
    binds with equality.
    """
    incident = math.exp(
        math.log(budget.c_t) + 2.0 * (airs_index - 1) * math.log(budget.np_kappa_i)
    )
    return eta_for_incident_power(incident, p.amp_power, p.noise_power)


def eta_for_incident_power(incident: float, amp_power: float, noise_power: float) -> float:
    """Boundary gain for a directly measured incident per-element power."""
    return math.sqrt(amp_power / (incident + noise_power))


def check_power_constraint(eta: float, incident: float, noise_power: float,
                           amp_power: float, rel_tol: float = 1e-12) -> tuple[bool, float]:
    """Feasibility of eta, returning (ok, signed slack) in watts."""
    slack = amp_power - eta**2 * (incident + noise_power)
    return slack >= -rel_tol * amp_power, slack


def optimal_configuration(airs_index: int, geometry: list[HopGeometry],
                          p: SystemParams, budget: LinkBudget | None = None,
                          ) -> tuple[PhaseConfig, np.ndarray]:
    """Jointly optimal (phases, beam) for a given active-surface position."""
    if budget is None:
        budget = derive_link_budget(p)
    beam = optimal_transmit_beam(bs_departure_response(geometry, p), p.tx_power)
    pairs = surface_response_pairs(geometry, p, airs_index)
    theta = tuple(optimal_reflection_phases(arrive, depart) for arrive, depart in pairs)
    eta = amplification_factor(airs_index, budget, p)
    return PhaseConfig(theta=theta, eta=eta), beam
