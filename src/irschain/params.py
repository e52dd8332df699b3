"""System parameters and derived link-budget constants.

The fields are linear SI units (watts, meters, dimensionless gains); dB and
dBm appear only at I/O boundaries.  The link budget holds natural logs, each
a sum of field logs, so no product of per-hop gains is formed that could
leave double range before its log is taken.
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


def db_to_linear(x: float) -> float:
    """Convert a gain in dB to a linear power ratio."""
    return 10.0 ** (x / 10.0)


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
    """Natural logs of the per-hop gains and the constants they induce.

    log_kappa_b / log_kappa_u: the transmitter->surface-1 and surface-J->receiver hops'
    amplitude (not power) gains, log kappa = log(ref_path_gain) / 2 - (path_loss_exponent / 2)
    log d.  log_c_t = log tx_power + log bs_antennas + 2 log_kappa_b; log_c_a = log amp_power
    + log airs_elements + 2 log_kappa_u; log_np_kappa_i = log(pirs_elements
    * sqrt(ref_path_gain)) - (path_loss_exponent / 2) log d, the log of the one-hop passive
    relay factor x, which the closed-form placement needs below 1 (``f_decreasing``).
    ``kappa_i`` is exp(log_np_kappa_i - log pirs_elements), inf past double range.
    ``log_signal`` = log_c_a + log_c_t + log(airs_elements) + 2(J-1) log_np_kappa_i, in that
    order, is the log received signal power at every position; it is finite only when those
    three logs are, and then so is every other.  ``log_noise_c_a`` / ``log_noise_c_t`` add
    log(noise_power) to log_c_a / log_c_t and ``log_noise_floor`` is 2 log(noise_power): each
    is the first addition of a left-to-right sum in the objectives, so taking it here changes
    no bit.  The written-out ``__init__`` takes log_kappa_b, log_np_kappa_i, log_kappa_u and
    ``p`` (an argument only) and stores all twelve fields in one step; the record is still
    frozen and compares, hashes and prints all twelve.
    """

    kappa_i: float
    f_decreasing: bool
    log_kappa_b: float
    log_kappa_u: float
    log_c_a: float
    log_c_t: float
    log_np_kappa_i: float
    log_noise_power: float
    log_signal: float
    log_noise_c_a: float
    log_noise_c_t: float
    log_noise_floor: float

    def __init__(self, log_kappa_b: float, log_np_kappa_i: float, log_kappa_u: float,
                 p: SystemParams):
        log_airs = math.log(p.airs_elements)
        log_c_a = math.log(p.amp_power) + log_airs + 2.0 * log_kappa_u
        log_c_t = math.log(p.tx_power) + math.log(p.bs_antennas) + 2.0 * log_kappa_b
        log_noise_power = math.log(p.noise_power)
        try:  # the one linear field
            kappa_i = math.exp(log_np_kappa_i - math.log(p.pirs_elements))
        except OverflowError:
            kappa_i = math.inf
        # one dict update instead of a frozen object.__setattr__ per field
        vars(self).update(
            kappa_i=kappa_i, f_decreasing=log_np_kappa_i < 0.0,
            log_kappa_b=log_kappa_b, log_kappa_u=log_kappa_u,
            log_c_a=log_c_a, log_c_t=log_c_t, log_np_kappa_i=log_np_kappa_i,
            log_noise_power=log_noise_power,
            log_signal=log_c_a + log_c_t + log_airs + 2.0 * (p.num_irs - 1) * log_np_kappa_i,
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


# Each derived quantity whose log can leave double range: its name in the error and the
# fields that feed it, read once the range test has failed.  A hop gain's log leaves it
# only through (alpha/2) log d.  log np_kappa_i is within 21 of log kappa_i, so cannot.
_GAIN = ("ref_path_gain", "path_loss_exponent")
_OUT_OF_RANGE = {
    "kappa_b": ("the hop gain", ("path_loss_exponent", "bs_irs_distance")),
    "kappa_i": ("the hop gain", ("path_loss_exponent", "inter_irs_distance")),
    "kappa_u": ("the hop gain", ("path_loss_exponent", "irs_user_distance")),
    "c_a": ("c_a = amp_power * airs_elements * kappa_u**2",
            ("amp_power", "airs_elements", "irs_user_distance") + _GAIN),
    "c_t": ("c_t = tx_power * bs_antennas * kappa_b**2",
            ("tx_power", "bs_antennas", "bs_irs_distance") + _GAIN),
}
# the objectives take every budget constant, J, N_a and the noise
_CHAIN = tuple(dict.fromkeys(("num_irs", "pirs_elements", "inter_irs_distance") + _GAIN
                             + _OUT_OF_RANGE["c_a"][1] + _OUT_OF_RANGE["c_t"][1]
                             + ("noise_power",)))
_OUT_OF_RANGE["objective"] = ("the objective", _CHAIN)


def out_of_range_message(p: SystemParams, *quantities: str) -> str:
    """'f1 = v1, ... and fn = vn put <quantity> out of double range', "; "-joined.

    A quantity is "kappa_b", "kappa_i", "kappa_u", "c_a", "c_t" or "objective";
    f1..fn are the fields that feed it.  The all-passive baseline is a sum of
    finite budget logs, so it never leaves double range and has no entry.
    """
    messages = []
    for quantity in quantities:
        text, fields = _OUT_OF_RANGE[quantity]
        named = [f"{field} = {_g(getattr(p, field))}" for field in fields]
        messages.append(f"{', '.join(named[:-1])} and {named[-1]} put {text} out of double range")
    return "; ".join(messages)


def derive_link_budget(p: SystemParams) -> LinkBudget:
    """Derive the link budget of ``p``: every log a sum of field logs.

    Raises ``ValueError`` with ``validate``'s errors, else when a log is not
    finite, with one clause per quantity that the first failing step takes
    out of double range: the hop gains' logs or, when those are finite, those
    of c_a and c_t or, when those are too, the objective's log signal power.
    """
    if errors := validate(p):
        raise ValueError("invalid system parameters: " + "; ".join(d.message for d in errors))
    half_log_gain, half_exponent = 0.5 * math.log(p.ref_path_gain), p.path_loss_exponent / 2.0
    # log(pirs_elements * sqrt(ref_path_gain)), a product in range, rounds once, not twice
    hops = [half_log_gain - half_exponent * math.log(p.bs_irs_distance),
            math.log(p.pirs_elements * math.sqrt(p.ref_path_gain))
            - half_exponent * math.log(p.inter_irs_distance),
            half_log_gain - half_exponent * math.log(p.irs_user_distance)]
    budget = LinkBudget(*hops, p)  # by position: cheaper than by keyword
    if math.isfinite(budget.log_signal):  # the one test: the logs it sums carry the rest
        return budget
    failed = ([q for q, v in zip(("kappa_b", "kappa_i", "kappa_u"), hops) if not math.isfinite(v)]
              or [q for q, v in (("c_a", budget.log_c_a), ("c_t", budget.log_c_t))
                  if not math.isfinite(v)]
              or ["objective"])
    raise ValueError("invalid system parameters: " + out_of_range_message(p, *failed))


@dataclass(frozen=True)
class Diagnostic:
    """A field error from ``validate`` or a warning from ``model_warnings``."""
    name: str
    message: str


def fraunhofer_distance(p: SystemParams) -> float:
    """Far-field threshold 2 D^2 / wavelength, D the largest array aperture.

    D is the transmit array's length or a panel's diagonal, taken inline; a
    1-element array has zero extent, and on a tie D is the same float either
    way.  Returns ``math.inf`` when the threshold leaves double range (d_max**2
    raises, or a product rounds to inf); it feeds only ``model_warnings``.
    """
    s = p.element_spacing
    try:
        d_max = (p.bs_antennas - 1) * s
        for grid in (p.airs_grid, p.pirs_grid):
            if grid is not None:
                aperture = math.hypot((grid[0] - 1) * s, (grid[1] - 1) * s)
                if aperture > d_max:
                    d_max = aperture
        return 2.0 * d_max**2 / p.wavelength
    except OverflowError:
        return math.inf


def validate(p: SystemParams) -> list[Diagnostic]:
    """The per-field errors that make ``p`` unusable, as data, never raised.  A
    derived quantity out of double range is left to ``derive_link_budget``."""
    out: list[Diagnostic] = []
    if p.num_irs < 1:
        out.append(Diagnostic("num_irs", f"need at least one surface, got num_irs={p.num_irs}"))
    elif p.num_irs > MAX_SURFACES:
        out.append(Diagnostic("num_irs",
                              f"num_irs must be at most {MAX_SURFACES} surfaces, got {p.num_irs}"))
    if p.bs_antennas < 1:
        out.append(Diagnostic("bs_antennas",
                              f"need at least one transmit antenna, got {p.bs_antennas}"))
    for count, grid in (("airs_elements", "airs_grid"), ("pirs_elements", "pirs_grid")):
        n, g = getattr(p, count), getattr(p, grid)
        if not 1 <= n <= MAX_ELEMENTS:
            out.append(Diagnostic(count, f"{count} must be 1..{MAX_ELEMENTS} elements, got {n}"))
        if g is not None and g[0] * g[1] != n:
            out.append(Diagnostic(grid, f"grid {g} does not factor {count}={n}"))
    for name in ("bs_irs_distance", "irs_user_distance", "inter_irs_distance",
                 "tx_power", "amp_power", "noise_power", "ref_path_gain",
                 "wavelength", "element_spacing", "path_loss_exponent"):
        if not 0.0 < (value := getattr(p, name)) < math.inf:  # also rejects nan
            out.append(Diagnostic(name, f"{name} must be positive and finite, got {value}"))
    return out


def model_warnings(p: SystemParams, budget: LinkBudget) -> list[Diagnostic]:
    """The far-field margin, from ``fraunhofer_distance(p)`` (an infinite threshold
    warns of every hop), and the f(l) non-decreasing warning, from ``budget`` =
    ``derive_link_budget(p)``'s ``f_decreasing``, which also steers ``optimal_index``."""
    out = []
    far_field = fraunhofer_distance(p)
    near = [f"{name}={getattr(p, name):g} m" for name in
            ("bs_irs_distance", "irs_user_distance", "inter_irs_distance")
            if getattr(p, name) < far_field]
    if near:
        out.append(Diagnostic("far_field", "below the far-field threshold "
                              f"{far_field:.3g} m: {', '.join(near)}"))
    if not budget.f_decreasing:
        out.append(Diagnostic("f_non_decreasing", "f(l) non-decreasing regime: "
                              f"pirs_elements * kappa_i = {p.pirs_elements * budget.kappa_i:.4g}"
                              " >= 1; closed-form placement falls back to brute force"))
    return out
