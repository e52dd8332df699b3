"""Helpers that only the tests need: per-surface element counts, one
surface's reflection coefficient sum, the per-element power incident on
the active surface, the amplifier power-budget check and the paper's
panel-size scaling orders."""

import math

import numpy as np

from irschain import channel
from irschain.params import SystemParams, check_airs_index


def elements_at(p: SystemParams, k: int, airs_index: int) -> int:
    """Element count of surface k (1-based) given the active one's index."""
    return p.airs_elements if k == airs_index else p.pirs_elements


def reflection_coefficient_sum(arrive, depart, reflection) -> complex:
    """A_k = depart^H diag(reflection) arrive for one surface, reflection = e^{j theta}."""
    return complex(np.vdot(depart, reflection * arrive))


def incident_element_power(airs_index: int, geometry, phases, beam, p: SystemParams) -> float:
    """Per-element signal power hitting the active surface, from the matrix oracle.

    Under pure LoS every element receives the same power, whatever the
    reflection phases, because each hop's receive response has
    unit-modulus entries.
    """
    return math.exp(channel._log_powers(airs_index, geometry, phases, beam, p)[2])


def check_power_constraint(eta: float, incident: float, noise_power: float,
                           amp_power: float) -> tuple[bool, float]:
    """Feasibility of eta up to 1e-12 of the budget, returning (ok, signed slack) in watts."""
    slack = amp_power - eta**2 * (incident + noise_power)
    return slack >= -1e-12 * amp_power, slack


def snr_scaling_order(airs_index: int, num_irs: int) -> int:
    """Predicted exponent of the SNR in the panel size, piecewise in the index."""
    check_airs_index(airs_index, num_irs)
    if airs_index < (num_irs + 1) / 2.0:
        return 2 * (airs_index - 1)
    return 2 * (num_irs - airs_index)


def power_scaling_order(airs_index: int, num_irs: int) -> int:
    """Predicted exponent of the received power in the panel size."""
    check_airs_index(airs_index, num_irs)
    return 2 * (num_irs - airs_index)
