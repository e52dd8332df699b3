"""System parameters and derived link-budget constants.

Everything internal runs in linear SI units (watts, meters, dimensionless
gains); dB and dBm appear only at I/O boundaries, which keeps products of
many per-hop attenuations free of mixed-unit mistakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0

DEFAULT_CARRIER_HZ = 3.5e9
MAX_ELEMENTS = 10**9  # per surface; the O(sqrt(n)) panel grid search takes ms here
MAX_SURFACES = 10**6  # per chain; a solve's time and memory grow linearly with it


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
    d = math.isqrt(n)
    while n % d:
        d -= 1
    return d, n // d


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
        for count, grid in (("airs_elements", "airs_grid"), ("pirs_elements", "pirs_grid")):
            if getattr(self, grid) is None and 1 <= getattr(self, count) <= MAX_ELEMENTS:
                object.__setattr__(self, grid, _near_square_grid(getattr(self, count)))

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


@dataclass(frozen=True, init=False)
class LinkBudget:
    """Per-hop amplitude gains and the composite constants they induce.

    kappa_b / kappa_i / kappa_u are the amplitude (not power) gains of the
    transmitter->surface-1, inter-surface, and surface-J->receiver hops.
    c_t = tx_power * bs_antennas * kappa_b**2 collects the transmit side,
    c_a = amp_power * airs_elements * kappa_u**2 the active-surface side.
    np_kappa_i = pirs_elements * kappa_i is the one-hop passive relay
    factor; the closed-form placement results require np_kappa_i < 1
    (``f_decreasing``), where per-hop attenuation beats the passive
    beamforming gain.  The ``log_*`` fields are log(c_a), log(c_t),
    log(np_kappa_i), ``log_noise_power`` = log(noise_power) and
    ``log_signal`` = log c_a + log c_t + log(airs_elements)
    + 2(J-1) log(np_kappa_i), added in that order: the log received signal
    power, the same at every position.  The closed forms' other
    position-independent sums are ``log_noise_c_a`` = log(noise_power)
    + log c_a, ``log_noise_c_t`` = log(noise_power) + log c_t and
    ``log_noise_floor`` = 2 log(noise_power); each is the first addition
    of a left-to-right sum in the objectives, so taking it here changes no
    bit.  The written-out ``__init__`` takes the six linear fields and ``p``
    (a constructor argument only, supplying noise_power, airs_elements and
    J), derives the other nine and stores all fifteen in one step; the
    record is still frozen and compares, hashes and prints all fifteen.
    """

    kappa_b: float
    kappa_i: float
    kappa_u: float
    c_a: float
    c_t: float
    np_kappa_i: float
    f_decreasing: bool
    log_c_a: float
    log_c_t: float
    log_np_kappa_i: float
    log_noise_power: float
    log_signal: float
    log_noise_c_a: float
    log_noise_c_t: float
    log_noise_floor: float

    def __init__(self, kappa_b: float, kappa_i: float, kappa_u: float, c_a: float,
                 c_t: float, np_kappa_i: float, p: SystemParams):
        log_c_a = math.log(c_a)
        log_c_t = math.log(c_t)
        log_np_kappa_i = math.log(np_kappa_i)
        log_noise_power = math.log(p.noise_power)
        # one dict update instead of a frozen object.__setattr__ per field
        vars(self).update(
            kappa_b=kappa_b, kappa_i=kappa_i, kappa_u=kappa_u, c_a=c_a, c_t=c_t,
            np_kappa_i=np_kappa_i, f_decreasing=np_kappa_i < 1.0, log_c_a=log_c_a,
            log_c_t=log_c_t, log_np_kappa_i=log_np_kappa_i, log_noise_power=log_noise_power,
            log_signal=(log_c_a + log_c_t + math.log(p.airs_elements)
                        + 2.0 * (p.num_irs - 1) * log_np_kappa_i),
            log_noise_c_a=log_noise_power + log_c_a, log_noise_c_t=log_noise_power + log_c_t,
            log_noise_floor=2.0 * log_noise_power)


def amplitude_gain(distance: float, ref_path_gain: float, exponent: float) -> float:
    """LoS amplitude gain sqrt(ref_gain) / d**(exponent/2) of a single hop."""
    if distance <= 0.0:
        raise ValueError("hop distance must be positive")
    return math.sqrt(ref_path_gain) / distance ** (exponent / 2.0)


def _g(value: float) -> str:
    try:
        return f"{value:g}"
    except OverflowError:  # an int beyond double range; Decimal gives :g's six digits
        from decimal import Context  # here, not at the top: it adds ms to every start-up
        return f"{Context(prec=6).create_decimal(value).normalize():g}"


# Each derived quantity that can leave double range: its name in the error and the
# fields that feed it.  Read only once a range test has failed.  A hop gain raises
# only through d**(alpha/2); the constants built on it also scale with sqrt(beta_0).
_GAIN = ("ref_path_gain", "path_loss_exponent")
_OUT_OF_RANGE = {
    "kappa_b": ("the hop gain", ("path_loss_exponent", "bs_irs_distance")),
    "kappa_i": ("the hop gain", ("path_loss_exponent", "inter_irs_distance")),
    "kappa_u": ("the hop gain", ("path_loss_exponent", "irs_user_distance")),
    "c_a": ("c_a = amp_power * airs_elements * kappa_u**2",
            ("amp_power", "airs_elements", "irs_user_distance") + _GAIN),
    "c_t": ("c_t = tx_power * bs_antennas * kappa_b**2",
            ("tx_power", "bs_antennas", "bs_irs_distance") + _GAIN),
    "np_kappa_i": ("np_kappa_i = pirs_elements * kappa_i",
                   ("pirs_elements", "inter_irs_distance") + _GAIN),
    "far_field": ("the far-field threshold 2 D**2 / wavelength",
                  ("bs_antennas", "airs_elements", "pirs_elements", "element_spacing",
                   "wavelength")),
}
# the objectives and the all-passive baseline take every budget constant, J, N_a and the noise
_CHAIN = tuple(dict.fromkeys(("num_irs",) + _OUT_OF_RANGE["np_kappa_i"][1]
                             + _OUT_OF_RANGE["c_a"][1] + _OUT_OF_RANGE["c_t"][1]
                             + ("noise_power",)))
_OUT_OF_RANGE["objective"] = ("the objective", _CHAIN)
_OUT_OF_RANGE["all_pirs"] = ("the all-passive baseline", _CHAIN)


def out_of_range_message(p: SystemParams, *quantities: str) -> str:
    """'f1 = v1, ... and fn = vn put <quantity> out of double range', "; "-joined.

    A quantity is "kappa_b", "kappa_i", "kappa_u", "c_a", "c_t", "np_kappa_i",
    "far_field", "objective" or "all_pirs"; f1..fn are the fields that feed it.
    """
    messages = []
    for quantity in quantities:
        text, fields = _OUT_OF_RANGE[quantity]
        named = [f"{field} = {_g(getattr(p, field))}" for field in fields]
        messages.append(f"{', '.join(named[:-1])} and {named[-1]} put {text} out of double range")
    return "; ".join(messages)


def derive_link_budget(p: SystemParams) -> LinkBudget:
    """Derive the link-budget constants from validated system parameters."""
    if errors := validate(p, warnings=False):
        raise ValueError("invalid system parameters: " + "; ".join(d.message for d in errors))
    try:
        kappa_b = amplitude_gain(p.bs_irs_distance, p.ref_path_gain, p.path_loss_exponent)
        kappa_i = amplitude_gain(p.inter_irs_distance, p.ref_path_gain, p.path_loss_exponent)
        kappa_u = amplitude_gain(p.irs_user_distance, p.ref_path_gain, p.path_loss_exponent)
    except (OverflowError, ZeroDivisionError):
        failed = []
        for quantity, distance in (("kappa_b", p.bs_irs_distance),
                                   ("kappa_i", p.inter_irs_distance),
                                   ("kappa_u", p.irs_user_distance)):
            try:
                amplitude_gain(distance, p.ref_path_gain, p.path_loss_exponent)
            except (OverflowError, ZeroDivisionError):
                failed.append(quantity)
        raise ValueError("invalid system parameters: "
                         + out_of_range_message(p, *failed)) from None
    try:  # a product can round to 0 or inf
        c_a = p.amp_power * p.airs_elements * kappa_u**2
    except OverflowError:  # a gain squared past the largest double
        c_a = math.inf
    try:
        c_t = p.tx_power * p.bs_antennas * kappa_b**2
    except OverflowError:
        c_t = math.inf
    np_kappa_i = p.pirs_elements * kappa_i
    if not (0.0 < c_a < math.inf and 0.0 < c_t < math.inf and 0.0 < np_kappa_i < math.inf):
        raise ValueError("invalid system parameters: " + out_of_range_message(
            p, *(quantity for quantity, value in
                 (("c_a", c_a), ("c_t", c_t), ("np_kappa_i", np_kappa_i))
                 if not 0.0 < value < math.inf)))
    return LinkBudget(kappa_b, kappa_i, kappa_u, c_a, c_t, np_kappa_i, p)  # by position: cheaper


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    name: str
    message: str


def fraunhofer_distance(p: SystemParams) -> float:
    """Far-field threshold 2 D^2 / wavelength, D the largest array aperture.

    D is the transmit array's length or a panel's diagonal, taken inline; a
    1-element array has zero extent, and on a tie D is the same float either
    way.  Raises ``ValueError`` naming the fields that set it when it leaves
    double range (d_max**2 raises, or a product rounds to inf).
    """
    s = p.element_spacing
    try:
        d_max = (p.bs_antennas - 1) * s
        for grid in (p.airs_grid, p.pirs_grid):
            if grid is not None:
                aperture = math.hypot((grid[0] - 1) * s, (grid[1] - 1) * s)
                if aperture > d_max:
                    d_max = aperture
        threshold = 2.0 * d_max**2 / p.wavelength
    except OverflowError:
        threshold = math.inf
    if threshold < math.inf:
        return threshold
    raise ValueError(out_of_range_message(p, "far_field"))


def validate(p: SystemParams, *, warnings: bool = True) -> list[Diagnostic]:
    """Check every parameter invariant; diagnostics are data, never raised.

    Errors make the parameter set unusable; warnings flag modeling
    assumptions that do not hold (far-field margin, f(l) non-decreasing).
    ``warnings=False`` returns the same errors and formats no warning.  A hop
    gain out of double range is left to ``derive_link_budget``, which names it.
    """
    out: list[Diagnostic] = []
    if p.num_irs < 1:
        out.append(Diagnostic("error", "num_irs",
                              f"need at least one surface, got num_irs={p.num_irs}"))
    elif p.num_irs > MAX_SURFACES:
        out.append(Diagnostic("error", "num_irs",
                              f"num_irs must be at most {MAX_SURFACES} surfaces, got {p.num_irs}"))
    if p.bs_antennas < 1:
        out.append(Diagnostic("error", "bs_antennas",
                              f"need at least one transmit antenna, got {p.bs_antennas}"))
    for count, grid in (("airs_elements", "airs_grid"), ("pirs_elements", "pirs_grid")):
        n, g = getattr(p, count), getattr(p, grid)
        if not 1 <= n <= MAX_ELEMENTS:
            out.append(Diagnostic("error", count,
                                  f"{count} must be 1..{MAX_ELEMENTS} elements, got {n}"))
        if g is not None and g[0] * g[1] != n:
            out.append(Diagnostic("error", grid, f"grid {g} does not factor {count}={n}"))
    for name in ("bs_irs_distance", "irs_user_distance", "inter_irs_distance",
                 "tx_power", "amp_power", "noise_power", "ref_path_gain",
                 "wavelength", "element_spacing", "path_loss_exponent"):
        if not 0.0 < getattr(p, name) < math.inf:  # also rejects nan
            out.append(Diagnostic("error", name,
                                  f"{name} must be positive and finite, got {getattr(p, name)}"))

    if out:
        return out  # derived checks below need sane inputs

    try:
        threshold = fraunhofer_distance(p)
    except ValueError as exc:
        out.append(Diagnostic("error", "far_field", str(exc)))
    else:
        near = warnings and [f"{name}={getattr(p, name):g} m" for name in
                             ("bs_irs_distance", "irs_user_distance", "inter_irs_distance")
                             if getattr(p, name) < threshold]
        if near:
            out.append(Diagnostic("warning", "far_field", "below the far-field threshold "
                                  f"{threshold:.3g} m: {', '.join(near)}"))

    try:
        np_kappa_i = warnings and p.pirs_elements * amplitude_gain(
            p.inter_irs_distance, p.ref_path_gain, p.path_loss_exponent)
    except (OverflowError, ZeroDivisionError):
        return out
    if np_kappa_i >= 1.0:
        out.append(Diagnostic(
            "warning", "f_non_decreasing",
            f"f(l) non-decreasing regime: pirs_elements * kappa_i = {np_kappa_i:.4g} >= 1; "
            "closed-form placement falls back to brute force",
        ))
    return out
