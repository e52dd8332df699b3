"""LoS channel model for the cascaded multi-surface link.

Every hop is a rank-one product of the receive and transmit array
responses, scaled by the hop's amplitude gain and carrier phase, and
every array response has unit-modulus entries.  So the received signal
is a product of scalars: the hop gains, the transmit beam's projection
on the first departure response, and one reflection coefficient sum
A_k = depart_k^H diag(phi_k) arrive_k = sum(phi_k * w_k) per surface.
The matrix oracle, against which all the closed forms are checked, adds
the logs of those magnitudes: O(J * N) time and memory for J surfaces of
N elements, and no underflow.  ``hop_matrices`` is the small-N reference
for it: it builds every hop's receive and transmit responses itself and
returns the dense N x N hop matrices.

``upa_response`` is the one array response, the Kronecker product of x-
and z-axis phase ramps exp(-j pi m varsigma); a linear array is one row
high.  So a surface's weights w_k = conj(depart_k) * arrive_k are the
Kronecker product of two ramps at the arrival minus the departure
arguments; no response row is built.
``surface_weights`` memoises them, one read-only row per surface, with
the transmit response and the log hop gains, so one oracle check
(optimal configuration, SNR, power) makes one exp pass per axis per
chain, the BS transmit response riding in the x-axis pass, and one
Kronecker product per panel size.  How the rows are laid out is this
module's business alone.  ``full_snr`` and ``full_power`` raise
``ValueError`` for a beam without ``bs_antennas`` entries or a
``PhaseConfig`` without one phasor per surface element.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, amplitude_gain, check_airs_index

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, init=False)
class HopGeometry:
    """Distance and departure/arrival angles (radians) of one hop.

    Hop k connects node k to node k+1 (node 0 is the transmitter, node
    J+1 the receiver).  The transmitter hop uses only the departure
    azimuth; the final hop has no arrival angles (single-antenna user).
    The written-out ``__init__`` stores the five fields in one step; the
    record is still frozen and compares, hashes and prints all five.
    """

    distance: float
    dep_azimuth: float
    dep_elevation: float = math.pi / 2.0
    arr_azimuth: float = 0.0
    arr_elevation: float = math.pi / 2.0

    def __init__(self, distance: float, dep_azimuth: float,
                 dep_elevation: float = math.pi / 2.0, arr_azimuth: float = 0.0,
                 arr_elevation: float = math.pi / 2.0):
        # one dict update instead of a frozen object.__setattr__ per field
        vars(self).update(distance=distance, dep_azimuth=dep_azimuth,
                          dep_elevation=dep_elevation, arr_azimuth=arr_azimuth,
                          arr_elevation=arr_elevation)


@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """Reflection phasors of every surface plus the active-surface gain.

    ``reflection[k - 1]`` holds surface k's per-element phasors
    e^{j theta}; ``eta`` is the common amplification factor applied at the
    active surface (1 would be passive, feasibility is checked by the
    beamforming module).  The record holds the arrays it is given, uncopied:
    the oracle reads the phasors when it is called, so a phasor edited in
    place is read afresh.  Equality is identity: value comparison of arrays
    has no single truth value.
    """

    reflection: tuple[np.ndarray, ...]
    eta: float


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a and the array owning its memory read-only, so neither can be made
    writeable again (``setflags`` costs less than writing ``a.flags``)."""
    if a.base is not None:
        a.base.setflags(write=False)
    a.setflags(write=False)
    return a


def _steering_rows(varsigmas: list[float], length: int) -> np.ndarray:
    """Row r is the steering vector [exp(-j*pi*m*varsigmas[r])], m = 0..length-1."""
    return np.exp((-1j * math.pi * np.array(varsigmas, dtype=float))[:, None]
                  * np.arange(length))


def _kron_rows(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row r is the Kronecker product of rows x[r] and z[r]."""
    (rows, nx), nz = x.shape, z.shape[1]
    # a row-wise outer product is the Kronecker product of each pair of vectors; x is
    # repeated out first, as a broadcast inner axis makes numpy page in fresh buffers
    x = np.repeat(x, nz, axis=1).reshape(rows, nx, nz)
    return (x * z[:, None, :]).reshape(rows, nx * nz)


def _panel_args(azimuth: float, elevation: float, two_d: float) -> tuple[float, float]:
    """(x, z) steering arguments of a planar array, two_d = 2 * spacing / wavelength."""
    return two_d * math.cos(azimuth) * math.sin(elevation), two_d * math.cos(elevation)


def upa_response(azimuth: float, elevation: float, nx: int, nz: int,
                 spacing: float, wavelength: float) -> np.ndarray:
    """Planar-array response: Kronecker product of the x- and z-axis responses.
    A linear array along x is the panel with nz = 1 at elevation pi / 2."""
    if nx < 1 or nz < 1:
        raise ValueError("panel dimensions must be >= 1")
    x_arg, z_arg = _panel_args(azimuth, elevation, 2.0 * spacing / wavelength)
    return _kron_rows(_steering_rows([x_arg], nx), _steering_rows([z_arg], nz))[0]


# per hop: departure azimuth, departure elevation, arrival azimuth, arrival elevation
_ANGLE_LOW = np.array([0.0, 0.1, 0.0, 0.1])
_ANGLE_SPAN = np.array([TWO_PI, math.pi - 0.1, TWO_PI, math.pi - 0.1]) - _ANGLE_LOW


def random_geometry(p: SystemParams, rng: np.random.Generator) -> list[HopGeometry]:
    """Hop list with the configured distances but fully random angles.

    All angles come from one draw of uniforms, scaled the way
    ``rng.uniform`` scales them, so the generator is consumed and the
    angles come out exactly as with one scalar draw per angle in hop order.
    """
    distances = p.hop_distances()
    angles = (_ANGLE_LOW + _ANGLE_SPAN * rng.random((len(distances), 4))).tolist()
    return [HopGeometry(dist, *hop_angles) for dist, hop_angles in zip(distances, angles)]


def _check_chain(geometry: list[HopGeometry], p: SystemParams, airs_index: int) -> None:
    if len(geometry) != p.num_irs + 1:
        raise ValueError(f"expected {p.num_irs + 1} hops, got {len(geometry)}")
    check_airs_index(airs_index, p.num_irs)


def surface_weights(geometry: list[HopGeometry], p: SystemParams, airs_index: int):
    """(weights, BS transmit response, log|g_k| of hops 0..J) of a chain.

    ``weights[k - 1]`` is surface k's w_k = conj(depart_k) * arrive_k.  Calls
    with equal arguments share the same read-only arrays.
    """
    _check_chain(geometry, p, airs_index)
    return _build_weights(tuple(geometry), p, airs_index)


# An oracle check asks for one chain's weights three times (beamformer, full_snr,
# full_power), yet with one entry the oracle ran about a quarter slower, most
# likely because the rows then go back to the allocator after every check.
@functools.lru_cache(maxsize=4)
def _build_weights(geometry: tuple[HopGeometry, ...], p: SystemParams, airs_index: int):
    two_d = 2.0 * p.element_spacing / p.wavelength
    # active surface first, so the surfaces of each panel size are one block of rows
    order = [airs_index, *range(1, airs_index), *range(airs_index + 1, p.num_irs + 1)]
    x_args, z_args = [], []
    for k in order:  # surface k receives at hop k-1's arrival, re-radiates at hop k's departure
        arr_x, arr_z = _panel_args(geometry[k - 1].arr_azimuth, geometry[k - 1].arr_elevation,
                                   two_d)
        dep_x, dep_z = _panel_args(geometry[k].dep_azimuth, geometry[k].dep_elevation, two_d)
        x_args.append(arr_x - dep_x)
        z_args.append(arr_z - dep_z)
    (nx_a, nz_a), (nx_p, nz_p) = p.airs_grid, p.pirs_grid
    # one exp pass per axis, the BS row last; a steering entry depends only on its
    # argument and index, so a row cut from the longer pass is bit-identical
    x = _read_only(_steering_rows(x_args + [two_d * math.cos(geometry[0].dep_azimuth)],
                                  max(nx_a, nx_p, p.bs_antennas)))
    z = _steering_rows(z_args, max(nz_a, nz_p))
    cuts = [0, p.num_irs] if p.airs_grid == p.pirs_grid else sorted({0, 1, p.num_irs})
    weights = [None] * p.num_irs
    for start, stop in zip(cuts, cuts[1:]):
        nx, nz = p.grid_at(order[start], airs_index)
        rows = _read_only(_kron_rows(x[start:stop, :nx], z[start:stop, :nz]))
        for k, row in zip(order[start:stop], rows):
            weights[k - 1] = row
    distances = [hop.distance for hop in geometry]
    log_of = {d: math.log(amplitude_gain(d, p.ref_path_gain, p.path_loss_exponent))
              for d in set(distances)}
    return tuple(weights), x[p.num_irs, :p.bs_antennas], tuple(map(log_of.__getitem__, distances))


def hop_matrices(geometry: list[HopGeometry], p: SystemParams,
                 airs_index: int) -> list[np.ndarray]:
    """Dense per-hop channel matrices, transmitter hop first.

    Entry 0 is (N_1 x M), entries 1..J-1 are (N_{k+1} x N_k), and the
    final user hop is returned as a (1 x N_J) row.  Hop k is
    g_k e^{-j 2 pi d_k / lambda} rx_k tx_k^H with unit-modulus responses
    built afresh, one ``upa_response`` per surface side and one for the
    transmitter's linear array: surface k receives on hop k-1's arrival
    angles and re-radiates on hop k's departure angles.
    This is the small-N reference for the per-surface-sum oracle; it needs
    O(J * N^2) memory.
    """
    _check_chain(geometry, p, airs_index)
    spacing, wavelength = p.element_spacing, p.wavelength
    rx, tx = [], [upa_response(geometry[0].dep_azimuth, math.pi / 2.0, p.bs_antennas, 1,
                               spacing, wavelength)]
    for k in range(1, p.num_irs + 1):
        arrive, depart, grid = geometry[k - 1], geometry[k], p.grid_at(k, airs_index)
        rx.append(upa_response(arrive.arr_azimuth, arrive.arr_elevation, *grid,
                               spacing, wavelength))
        tx.append(upa_response(depart.dep_azimuth, depart.dep_elevation, *grid,
                               spacing, wavelength))
    rx.append(np.ones(1))  # single-antenna receiver
    return [amplitude_gain(hop.distance, p.ref_path_gain, p.path_loss_exponent)
            * np.exp(-1j * TWO_PI * hop.distance / wavelength) * np.outer(r, t.conj())
            for hop, r, t in zip(geometry, rx, tx)]


def _log_abs(x: complex) -> float:
    """log|x|, -inf when x is exactly zero."""
    mag = abs(x)
    return math.log(mag) if mag > 0.0 else -math.inf


def _log_powers(airs_index, geometry, phases, beam, p) -> tuple[float, float, float]:
    """Logs of the received signal power, the amplified-noise power gain and
    the per-element power incident on the active surface.

    Every hop is rank one, so the field reaching surface l is
    g_0..g_{l-1} (tx_0^H w) A_1..A_{l-1} times a unit-modulus response,
    and the row leaving it is g_l..g_J A_{l+1}..A_J times tx_l^H, whose
    squared norm is N_l.  Each log is a sum of log magnitudes; a zero
    factor, such as eta = 0 or a null A_k, makes it -inf.
    """
    beam = np.asarray(beam, dtype=complex)
    weights, bs_tx, log_gain = surface_weights(geometry, p, airs_index)
    _check_shapes(weights, phases, beam, p)
    # log|tx_0^H w| at index 0, then log|A_k| = log|sum(phi_k * w_k)| at index k
    log_coeff = [_log_abs(np.vdot(bs_tx, beam))] + [
        _log_abs(np.dot(reflection, w)) for reflection, w in zip(phases.reflection, weights)]
    l = airs_index
    log_incident = 2.0 * (math.fsum(log_gain[:l]) + math.fsum(log_coeff[:l]))
    log_out = 2.0 * (math.fsum(log_gain[l:]) + math.fsum(log_coeff[l + 1:]))
    log_eta2 = 2.0 * _log_abs(phases.eta)
    log_signal = log_incident + 2.0 * log_coeff[l] + log_eta2 + log_out
    log_noise_gain = log_eta2 + log_out + math.log(weights[l - 1].size)
    return log_signal, log_noise_gain, log_incident


def _check_shapes(weights, phases: PhaseConfig, beam: np.ndarray, p: SystemParams) -> None:
    """Reject a beam or phasors that do not fit the chain; numpy would broadcast them."""
    if beam.shape != (p.bs_antennas,):
        raise ValueError(f"beam has shape {beam.shape}, but bs_antennas = {p.bs_antennas}")
    if len(phases.reflection) != p.num_irs:
        raise ValueError(f"phase config holds phasors of {len(phases.reflection)} surfaces, "
                         f"but the chain has {p.num_irs}")
    for k, (reflection, w) in enumerate(zip(phases.reflection, weights), start=1):
        if reflection.shape != w.shape:
            raise ValueError(f"surface {k} has {w.size} elements, but its reflection "
                             f"phasors have shape {reflection.shape}")


def full_snr(airs_index: int, geometry: list[HopGeometry], phases: PhaseConfig,
             beam: np.ndarray, p: SystemParams) -> float:
    """Receiver SNR evaluated from the matrix oracle."""
    log_signal, log_noise_gain, _ = _log_powers(airs_index, geometry, phases, beam, p)
    log_sigma2 = math.log(p.noise_power)
    return math.exp(log_signal - np.logaddexp(log_noise_gain + log_sigma2, log_sigma2))


def full_power(airs_index: int, geometry: list[HopGeometry], phases: PhaseConfig,
               beam: np.ndarray, p: SystemParams) -> float:
    """Total received signal-plus-amplification-noise power (watts)."""
    log_signal, log_noise_gain, _ = _log_powers(airs_index, geometry, phases, beam, p)
    noise = math.exp(log_noise_gain + math.log(p.noise_power)) if p.noise_power > 0.0 else 0.0
    return math.exp(log_signal) + noise
