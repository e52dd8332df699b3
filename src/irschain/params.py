"""System parameters and derived link-budget constants.

Everything internal runs in linear SI units (watts, meters, dimensionless
gains); dB and dBm appear only at I/O boundaries, which keeps products of
many per-hop attenuations free of mixed-unit mistakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0

DEFAULT_CARRIER_HZ = 3.5e9


def dbm_to_watts(x: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(x: float) -> float:
    """Convert a power in watts (> 0) to dBm."""
    if x <= 0.0:
        raise ValueError("watts_to_dbm requires a positive power")
    return 10.0 * math.log10(x) + 30.0


def db_to_linear(x: float) -> float:
    """Convert a gain in dB to a linear power ratio."""
    return 10.0 ** (x / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a linear power ratio (> 0) to dB."""
    if x <= 0.0:
        raise ValueError("linear_to_db requires a positive ratio")
    return 10.0 * math.log10(x)


def check_airs_index(airs_index: int, num_irs: int) -> None:
    """Reject an active-surface index outside the chain's positions 1..num_irs."""
    if not 1 <= airs_index <= num_irs:
        raise ValueError(f"active-surface index {airs_index} outside 1..{num_irs}")


def _near_square_grid(n: int) -> tuple[int, int]:
    # largest divisor <= sqrt(n), so the panel is as square as n allows
    best = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            best = d
    return best, n // best


@dataclass(frozen=True)
class SystemParams:
    """Scalar inputs of the cascaded-surface link.

    The chain is: multi-antenna transmitter (ULA, ``bs_antennas``) ->
    surface 1 -> ... -> surface ``num_irs`` -> single-antenna receiver.
    One surface is active (``airs_elements`` elements, per-element
    amplification budget ``amp_power``); the other ``num_irs - 1`` are
    passive with ``pirs_elements`` elements each.

    Distances are meters, powers watts, ``ref_path_gain`` is the linear
    power gain at 1 m, and ``noise_power`` is shared by the active
    surface's amplification noise and the receiver AWGN.
    """

    num_irs: int = 7
    bs_antennas: int = 10
    airs_elements: int = 150
    pirs_elements: int = 100
    bs_irs_distance: float = 4.0
    irs_user_distance: float = 4.0
    inter_irs_distance: float = 10.0
    tx_power: float = 1.0
    amp_power: float = 1e-4
    noise_power: float = 1e-9
    path_loss_exponent: float = 2.0
    ref_path_gain: float = 10.0 ** -4.3
    wavelength: float = SPEED_OF_LIGHT / DEFAULT_CARRIER_HZ
    element_spacing: float | None = None
    airs_grid: tuple[int, int] | None = None
    pirs_grid: tuple[int, int] | None = None

    def __post_init__(self):
        if self.element_spacing is None:
            object.__setattr__(self, "element_spacing", self.wavelength / 2.0)
        if self.airs_grid is None and self.airs_elements >= 1:
            object.__setattr__(self, "airs_grid", _near_square_grid(self.airs_elements))
        if self.pirs_grid is None and self.pirs_elements >= 1:
            object.__setattr__(self, "pirs_grid", _near_square_grid(self.pirs_elements))

    def elements_at(self, k: int, airs_index: int) -> int:
        """Element count of surface k (1-based) given the active one's index."""
        return self.airs_elements if k == airs_index else self.pirs_elements

    def grid_at(self, k: int, airs_index: int) -> tuple[int, int]:
        """(x, z) panel dimensions of surface k given the active one's index."""
        return self.airs_grid if k == airs_index else self.pirs_grid

    def hop_distances(self) -> list[float]:
        """Distances of hops 0..J: BS->surface 1, J-1 inter-surface, surface J->user."""
        return (
            [self.bs_irs_distance]
            + [self.inter_irs_distance] * (self.num_irs - 1)
            + [self.irs_user_distance]
        )


@dataclass(frozen=True)
class LinkBudget:
    """Per-hop amplitude gains and the composite constants they induce.

    kappa_b / kappa_i / kappa_u are the amplitude (not power) gains of the
    transmitter->surface-1, inter-surface, and surface-J->receiver hops.
    c_t = tx_power * bs_antennas * kappa_b**2 collects the transmit side,
    c_a = amp_power * airs_elements * kappa_u**2 the active-surface side.
    np_kappa_i = pirs_elements * kappa_i is the one-hop passive relay
    factor; the closed-form placement results require np_kappa_i < 1
    (``f_decreasing``), where per-hop attenuation beats the passive
    beamforming gain.
    """

    kappa_b: float
    kappa_i: float
    kappa_u: float
    c_a: float
    c_t: float
    np_kappa_i: float
    f_decreasing: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "f_decreasing", self.np_kappa_i < 1.0)


def amplitude_gain(distance: float, ref_path_gain: float, exponent: float) -> float:
    """LoS amplitude gain sqrt(ref_gain) / d**(exponent/2) of a single hop."""
    if distance <= 0.0:
        raise ValueError("hop distance must be positive")
    return math.sqrt(ref_path_gain) / distance ** (exponent / 2.0)


def derive_link_budget(p: SystemParams) -> LinkBudget:
    """Derive the link-budget constants from validated system parameters."""
    errors = [d for d in validate(p) if d.severity == "error"]
    if errors:
        raise ValueError("invalid system parameters: " + "; ".join(d.message for d in errors))
    kappa_b = amplitude_gain(p.bs_irs_distance, p.ref_path_gain, p.path_loss_exponent)
    kappa_i = amplitude_gain(p.inter_irs_distance, p.ref_path_gain, p.path_loss_exponent)
    kappa_u = amplitude_gain(p.irs_user_distance, p.ref_path_gain, p.path_loss_exponent)
    return LinkBudget(
        kappa_b=kappa_b,
        kappa_i=kappa_i,
        kappa_u=kappa_u,
        c_a=p.amp_power * p.airs_elements * kappa_u**2,
        c_t=p.tx_power * p.bs_antennas * kappa_b**2,
        np_kappa_i=p.pirs_elements * kappa_i,
    )


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    name: str
    message: str


def _aperture(nx: int, nz: int, spacing: float) -> float:
    # panel diagonal; a 1-element array has zero extent
    return math.hypot((nx - 1) * spacing, (nz - 1) * spacing)


def fraunhofer_distance(p: SystemParams) -> float:
    """Far-field threshold 2 D^2 / wavelength, D the largest array aperture."""
    apertures = [(p.bs_antennas - 1) * p.element_spacing]
    if p.airs_grid is not None:
        apertures.append(_aperture(*p.airs_grid, p.element_spacing))
    if p.pirs_grid is not None:
        apertures.append(_aperture(*p.pirs_grid, p.element_spacing))
    d_max = max(apertures)
    return 2.0 * d_max**2 / p.wavelength


def validate(p: SystemParams, far_field_threshold: float | None = None) -> list[Diagnostic]:
    """Check every parameter invariant; diagnostics are data, never raised.

    Errors make the parameter set unusable; warnings flag modeling
    assumptions that do not hold (far-field margin, non-decreasing
    effective-gain regime).
    """
    out: list[Diagnostic] = []

    def err(name, msg):
        out.append(Diagnostic("error", name, msg))

    if p.num_irs < 1:
        err("num_irs", f"need at least one surface, got num_irs={p.num_irs}")
    if p.bs_antennas < 1:
        err("bs_antennas", f"need at least one transmit antenna, got {p.bs_antennas}")
    if p.airs_elements < 1:
        err("airs_elements", f"active surface needs >= 1 element, got {p.airs_elements}")
    if p.pirs_elements < 1:
        err("pirs_elements", f"passive surfaces need >= 1 element, got {p.pirs_elements}")
    if p.airs_grid is not None and p.airs_grid[0] * p.airs_grid[1] != p.airs_elements:
        err("airs_grid", f"grid {p.airs_grid} does not factor airs_elements={p.airs_elements}")
    if p.pirs_grid is not None and p.pirs_grid[0] * p.pirs_grid[1] != p.pirs_elements:
        err("pirs_grid", f"grid {p.pirs_grid} does not factor pirs_elements={p.pirs_elements}")
    for name in ("bs_irs_distance", "irs_user_distance", "inter_irs_distance",
                 "tx_power", "amp_power", "noise_power", "ref_path_gain",
                 "wavelength", "element_spacing", "path_loss_exponent"):
        if not 0.0 < getattr(p, name) < math.inf:  # also rejects nan
            err(name, f"{name} must be positive and finite, got {getattr(p, name)}")

    if out:
        return out  # derived checks below need sane inputs

    threshold = fraunhofer_distance(p) if far_field_threshold is None else far_field_threshold
    for name in ("bs_irs_distance", "irs_user_distance", "inter_irs_distance"):
        d = getattr(p, name)
        if d < threshold:
            out.append(Diagnostic(
                "warning", "far_field",
                f"{name}={d:g} m is below the far-field threshold {threshold:.3g} m",
            ))

    kappa_i = amplitude_gain(p.inter_irs_distance, p.ref_path_gain, p.path_loss_exponent)
    if p.pirs_elements * kappa_i >= 1.0:
        out.append(Diagnostic(
            "warning", "f_non_decreasing",
            "f(l) non-decreasing regime: pirs_elements * kappa_i = "
            f"{p.pirs_elements * kappa_i:.4g} >= 1; closed-form placement "
            "falls back to brute force",
        ))
    return out
