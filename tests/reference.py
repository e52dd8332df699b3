"""Helpers that only the tests need: per-surface element counts, a fixed
zig-zag chain, every hop's array responses, the co-phasing rule, one
surface's reflection coefficient sum, the per-element power incident on
the active surface, the amplifier power-budget check, the paper's
panel-size scaling orders, the exact all-passive baseline and the
vanishing-noise limits of the final position's objective."""

import math

import mpmath
import numpy as np

from irschain import channel
from irschain.channel import HopGeometry
from irschain.params import SystemParams, check_airs_index


def elements_at(p: SystemParams, k: int, airs_index: int) -> int:
    """Element count of surface k (1-based) given the active one's index."""
    return p.airs_elements if k == airs_index else p.pirs_elements


def chain_geometry(p: SystemParams) -> list[HopGeometry]:
    """Default zig-zag placement producing non-degenerate hop angles.

    Headings alternate by +-turn/2 around the +x axis and elevations
    wobble by +-tilt around horizontal (turn 0.35 rad, tilt 0.15 rad);
    only the distances carry physical meaning, the angles just have to
    exist and stay consistent.
    """
    turn, tilt = 0.35, 0.15
    hops = []
    for k, dist in enumerate(p.hop_distances()):
        heading = 0.5 * turn * (1.0 if k % 2 == 0 else -1.0)
        elevation = math.pi / 2.0 + tilt * (1.0 if k % 2 == 0 else -1.0)
        hops.append(HopGeometry(distance=dist, dep_azimuth=heading, dep_elevation=elevation,
                                arr_azimuth=math.pi - heading, arr_elevation=math.pi - elevation))
    return hops


def hop_responses(geometry, p: SystemParams,
                  airs_index: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(receive, transmit) array responses of every hop, transmitter hop first.

    Hop 0 leaves the transmitter array, hop k (1 <= k < J) leaves surface
    k for surface k+1, and hop J reaches the single-antenna receiver.  So
    surface k receives on ``hops[k - 1][0]`` and re-radiates on
    ``hops[k][1]``, the pair its reflection phases co-phase, and the
    transmit beam matches ``hops[0][1]``.  Every response is built afresh.
    """
    spacing, wavelength = p.element_spacing, p.wavelength
    tx = channel.upa_response(geometry[0].dep_azimuth, math.pi / 2.0, p.bs_antennas, 1,
                              spacing, wavelength)
    hops = []
    for k in range(1, p.num_irs + 1):
        nx, nz = p.grid_at(k, airs_index)
        rx = channel.upa_response(geometry[k - 1].arr_azimuth, geometry[k - 1].arr_elevation,
                                  nx, nz, spacing, wavelength)
        hops.append((rx, tx))
        tx = channel.upa_response(geometry[k].dep_azimuth, geometry[k].dep_elevation,
                                  nx, nz, spacing, wavelength)
    return hops + [(np.ones(1), tx)]  # single-antenna receiver


def cophasing_phases(arrive, depart) -> np.ndarray:
    """Phasors depart * conj(arrive), which put every term of depart^H diag(r) arrive
    on the positive real axis; numpy rejects unequal lengths other than one."""
    return depart * arrive.conj()


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


def exact_all_pirs_log(mode: str, p: SystemParams) -> mpmath.mpf:
    """Natural log of the all-passive baseline, log SNR for "wit" and log watts for
    "wpt", in mpmath at 50 digits from the same float fields.

    The transmitter spends tx_power + airs_elements * amp_power into a chain of
    num_irs passive surfaces: log of that power, the array gain bs_antennas, the
    outer hops' power gains kappa_b**2 and kappa_u**2, pirs_elements**2 per surface
    and kappa_i**2 per inter-surface hop, with log kappa = log(ref_path_gain) / 2
    - (path_loss_exponent / 2) log d.
    """
    with mpmath.workdps(50):
        f = mpmath.mpf

        def log_kappa(distance):
            return (mpmath.log(f(p.ref_path_gain)) / 2
                    - f(p.path_loss_exponent) / 2 * mpmath.log(f(distance)))

        log_power = (mpmath.log(f(p.tx_power) + f(p.airs_elements) * f(p.amp_power))
                     + mpmath.log(f(p.bs_antennas))
                     + 2 * log_kappa(p.bs_irs_distance) + 2 * log_kappa(p.irs_user_distance)
                     + 2 * p.num_irs * mpmath.log(f(p.pirs_elements))
                     + 2 * (p.num_irs - 1) * log_kappa(p.inter_irs_distance))
        return +(log_power - mpmath.log(f(p.noise_power)) if mode == "wit" else log_power)


def vanishing_noise_limits(mode: str, p: SystemParams, budget) -> tuple[float, float]:
    """As the noise power vanishes, from the budget's logs: (log gain of the final
    position over the real middle index (J+1)/2, log of the final position's
    objective).

    With x = (pirs_elements * kappa_i)**(J-1), "wpt" tends to a middle gain of 1/x
    and to c_a * airs_elements watts; "wit" tends to a middle gain of
    x (c_a + c_t) / (c_a + c_t x**2) and to an SNR of
    signal / (noise_power (c_a + c_t x**2)).
    """
    log_x = (p.num_irs - 1) * budget.log_np_kappa_i
    if mode == "wpt":
        return -log_x, budget.log_c_a + math.log(p.airs_elements)
    log_den = float(np.logaddexp(budget.log_c_a, budget.log_c_t + 2.0 * log_x))
    return (log_x + float(np.logaddexp(budget.log_c_a, budget.log_c_t)) - log_den,
            budget.log_signal - budget.log_noise_power - log_den)
