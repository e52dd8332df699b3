"""LoS channel model for the cascaded multi-surface link.

Every hop between adjacent nodes is a rank-one product of the receive and
transmit array responses, scaled by the hop's amplitude gain and carrier
phase.  The cascade that evaluates SNR and received power, the reference
against which all the closed-form expressions are checked, applies each
hop through those rank-one factors, so a chain of J surfaces with N
elements each costs O(J * N) time and memory.  ``hop_matrices`` builds the
dense N x N hop matrices and serves as the small-N reference for it.

Cascade magnitudes shrink geometrically with the hop count, so the
cascade keeps each running vector at unit peak and carries the magnitude
separately in log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, amplitude_gain, check_airs_index

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HopGeometry:
    """Distance and departure/arrival angles (radians) of one hop.

    Hop k connects node k to node k+1 (node 0 is the transmitter, node
    J+1 the receiver).  The transmitter hop uses only the departure
    azimuth; the final hop has no arrival angles (single-antenna user).
    """

    distance: float
    dep_azimuth: float
    dep_elevation: float = math.pi / 2.0
    arr_azimuth: float = 0.0
    arr_elevation: float = math.pi / 2.0


@dataclass(frozen=True)
class PhaseConfig:
    """Reflection phases of every surface plus the active-surface gain.

    ``theta[k - 1]`` holds surface k's per-element phases in [0, 2*pi);
    ``eta`` is the common amplification factor applied at the active
    surface (1 would be passive, feasibility is checked by the
    beamforming module).
    """

    theta: tuple[np.ndarray, ...]
    eta: float

    def reflection(self, k: int) -> np.ndarray:
        """Unit-modulus reflection coefficients of surface k (1-based)."""
        return np.exp(1j * self.theta[k - 1])


def steering_vector(varsigma: float, length: int) -> np.ndarray:
    """Array response [exp(-j*pi*m*varsigma)] for m = 0..length-1."""
    if length < 1:
        raise ValueError("steering vector length must be >= 1")
    return np.exp(-1j * math.pi * varsigma * np.arange(length))


def ula_response(azimuth: float, n: int, spacing: float, wavelength: float) -> np.ndarray:
    """Linear-array response for a departure/arrival azimuth."""
    return steering_vector(2.0 * spacing / wavelength * math.cos(azimuth), n)


def upa_response(azimuth: float, elevation: float, nx: int, nz: int,
                 spacing: float, wavelength: float) -> np.ndarray:
    """Planar-array response: Kronecker product of the x- and z-axis responses."""
    if nx < 1 or nz < 1:
        raise ValueError("panel dimensions must be >= 1")
    two_d = 2.0 * spacing / wavelength
    x_arg = two_d * math.cos(azimuth) * math.sin(elevation)
    z_arg = two_d * math.cos(elevation)
    # outer(...).ravel() is the Kronecker product of two vectors, without np.kron's overhead
    return np.outer(steering_vector(x_arg, nx), steering_vector(z_arg, nz)).ravel()


def _hop_gain(hop: HopGeometry, ref_path_gain: float, exponent: float,
              wavelength: float) -> complex:
    """Amplitude gain times carrier phase of a single hop."""
    amp = amplitude_gain(hop.distance, ref_path_gain, exponent)
    return amp * np.exp(-1j * TWO_PI * hop.distance / wavelength)


def los_channel(hop: HopGeometry, rx_response: np.ndarray, tx_response: np.ndarray,
                ref_path_gain: float, exponent: float, wavelength: float) -> np.ndarray:
    """Dense rank-one LoS channel matrix of a single hop.

    Every entry has modulus sqrt(ref_path_gain) / distance**(exponent/2);
    the returned matrix maps the transmit side (columns) to the receive
    side (rows).
    """
    rx = np.atleast_1d(np.asarray(rx_response))
    tx = np.atleast_1d(np.asarray(tx_response))
    if rx.ndim != 1 or tx.ndim != 1:
        raise ValueError("array responses must be vectors")
    return _hop_gain(hop, ref_path_gain, exponent, wavelength) * np.outer(rx, tx.conj())


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
        hops.append(HopGeometry(
            distance=dist,
            dep_azimuth=heading,
            dep_elevation=elevation,
            arr_azimuth=math.pi - heading,
            arr_elevation=math.pi - elevation,
        ))
    return hops


def random_geometry(p: SystemParams, rng: np.random.Generator) -> list[HopGeometry]:
    """Hop list with the configured distances but fully random angles."""
    hops = []
    for dist in p.hop_distances():
        hops.append(HopGeometry(
            distance=dist,
            dep_azimuth=rng.uniform(0.0, TWO_PI),
            dep_elevation=rng.uniform(0.1, math.pi - 0.1),
            arr_azimuth=rng.uniform(0.0, TWO_PI),
            arr_elevation=rng.uniform(0.1, math.pi - 0.1),
        ))
    return hops


def hop_responses(geometry: list[HopGeometry], p: SystemParams,
                  airs_index: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(receive, transmit) array responses of every hop, transmitter hop first.

    Hop 0 leaves the transmitter array, hop k (1 <= k < J) leaves surface
    k for surface k+1, and hop J reaches the single-antenna receiver.  So
    surface k receives on ``hops[k - 1][0]`` and re-radiates on
    ``hops[k][1]``, the pair its reflection phases co-phase, and the
    transmit beam matches ``hops[0][1]``.
    """
    if len(geometry) != p.num_irs + 1:
        raise ValueError(f"expected {p.num_irs + 1} hops, got {len(geometry)}")
    check_airs_index(airs_index, p.num_irs)
    spacing, wavelength = p.element_spacing, p.wavelength
    tx = ula_response(geometry[0].dep_azimuth, p.bs_antennas, spacing, wavelength)
    hops = []
    for k in range(1, p.num_irs + 1):
        nx, nz = p.grid_at(k, airs_index)
        rx = upa_response(geometry[k - 1].arr_azimuth, geometry[k - 1].arr_elevation,
                          nx, nz, spacing, wavelength)
        hops.append((rx, tx))
        tx = upa_response(geometry[k].dep_azimuth, geometry[k].dep_elevation,
                          nx, nz, spacing, wavelength)
    hops.append((np.ones(1), tx))  # single-antenna receiver
    return hops


def hop_matrices(geometry: list[HopGeometry], p: SystemParams,
                 airs_index: int) -> list[np.ndarray]:
    """Dense per-hop channel matrices, transmitter hop first.

    Entry 0 is (N_1 x M), entries 1..J-1 are (N_{k+1} x N_k), and the
    final user hop is returned as a (1 x N_J) row.  This is the small-N
    reference for the rank-one cascade; it needs O(J * N^2) memory.
    """
    return [los_channel(hop, rx, tx, p.ref_path_gain, p.path_loss_exponent, p.wavelength)
            for hop, (rx, tx) in zip(geometry, hop_responses(geometry, p, airs_index))]


def _rescale(vec: np.ndarray, log_mag: float) -> tuple[np.ndarray, float]:
    peak = float(np.max(np.abs(vec)))
    if peak == 0.0:
        return vec, -math.inf
    return vec / peak, log_mag + math.log(peak)


def _cascade(airs_index, geometry, phases, beam, p):
    """Unit-peak effective channel vectors plus their log magnitudes.

    Forward: transmitter through surfaces 1..l-1 into the active surface.
    Backward: receiver row back through surfaces J..l+1.  Each hop acts as
    its rank-one factors, ``gain * rx * (tx^H x)`` forward and
    ``gain * (y rx) * tx^H`` backward, so a step costs O(N).  The
    reflection of the active surface itself is applied by the callers.
    """
    hops = hop_responses(geometry, p, airs_index)
    gains = [_hop_gain(hop, p.ref_path_gain, p.path_loss_exponent, p.wavelength)
             for hop in geometry]

    fwd, log_fwd = np.asarray(beam), 0.0
    for k in range(airs_index):
        if k > 0:
            fwd = phases.reflection(k) * fwd
        rx, tx = hops[k]
        fwd, log_fwd = _rescale(gains[k] * np.vdot(tx, fwd) * rx, log_fwd)

    bwd, log_bwd = np.ones(1), 0.0  # single-antenna receiver
    for k in range(p.num_irs, airs_index - 1, -1):
        if k < p.num_irs:
            bwd = bwd * phases.reflection(k + 1)
        rx, tx = hops[k]
        bwd, log_bwd = _rescale(gains[k] * (bwd @ rx) * tx.conj(), log_bwd)

    return fwd, log_fwd, bwd, log_bwd


def _log_received(airs_index, geometry, phases, beam, p) -> tuple[float, float]:
    """Log of the received signal power and of the amplified-noise power gain.

    The noise gain eta^2 * ||h_out||^2 multiplies the amplification noise
    power; either log is -inf when its power is exactly zero.
    """
    if phases.eta == 0.0:
        return -math.inf, -math.inf
    fwd, log_fwd, bwd, log_bwd = _cascade(airs_index, geometry, phases, beam, p)
    coupling = abs(bwd @ (phases.reflection(airs_index) * fwd))
    log_eta2 = 2.0 * math.log(phases.eta)
    log_signal = log_noise_gain = -math.inf
    if coupling > 0.0:
        log_signal = log_eta2 + 2.0 * (log_fwd + log_bwd + math.log(coupling))
    if log_bwd > -math.inf:
        # reflection is unit-modulus diagonal, so ||row * reflection|| == ||row||
        log_noise_gain = log_eta2 + 2.0 * log_bwd + math.log(float(np.sum(np.abs(bwd) ** 2)))
    return log_signal, log_noise_gain


def effective_channels(airs_index: int, geometry: list[HopGeometry], phases: PhaseConfig,
                       beam: np.ndarray, p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Effective channels into and out of the active surface.

    Returns (h_in, h_out_row): h_in maps the transmit beam to the field
    incident on the active surface; h_out_row is the row vector such that
    the received scalar is ``h_out_row @ (reflection * h_in)``.
    """
    fwd, log_fwd, bwd, log_bwd = _cascade(airs_index, geometry, phases, beam, p)
    return fwd * math.exp(log_fwd), bwd * math.exp(log_bwd)


def incident_element_power(airs_index: int, geometry: list[HopGeometry], phases: PhaseConfig,
                           beam: np.ndarray, p: SystemParams) -> float:
    """Largest per-element signal power hitting the active surface.

    Under pure LoS with co-phased reflections every element sees the same
    power; the maximum keeps the feasibility check conservative for
    arbitrary phase configurations.
    """
    _, log_fwd, _, _ = _cascade(airs_index, geometry, phases, beam, p)
    return math.exp(2.0 * log_fwd)


def full_snr(airs_index: int, geometry: list[HopGeometry], phases: PhaseConfig,
             beam: np.ndarray, p: SystemParams) -> float:
    """Receiver SNR evaluated from the explicit channel cascade."""
    log_signal, log_noise_gain = _log_received(airs_index, geometry, phases, beam, p)
    if log_signal == -math.inf:
        return 0.0
    log_sigma2 = math.log(p.noise_power)
    return math.exp(log_signal - np.logaddexp(log_noise_gain + log_sigma2, log_sigma2))


def full_power(airs_index: int, geometry: list[HopGeometry], phases: PhaseConfig,
               beam: np.ndarray, p: SystemParams) -> float:
    """Total received signal-plus-amplification-noise power (watts)."""
    log_signal, log_noise_gain = _log_received(airs_index, geometry, phases, beam, p)
    noise = 0.0
    if p.noise_power > 0.0:
        noise = math.exp(log_noise_gain + math.log(p.noise_power))
    return math.exp(log_signal) + noise
