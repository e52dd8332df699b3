"""Closed-form link objectives and their large-panel scaling orders.

Both objectives collapse to ratios of a handful of positive terms of the
form const * (pirs_elements * kappa_i)**(2k).  Those powers reach the
underflow edge of double precision well before the model breaks down, so
every term is assembled in log domain and combined with logaddexp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import LinkBudget, SystemParams, check_airs_index, derive_link_budget

WIT = "wit"  # information transfer: maximize receiver SNR
WPT = "wpt"  # power transfer: maximize received signal-plus-noise power

MODES = (WIT, WPT)


def check_mode(mode: str) -> None:
    """Raise the one unknown-mode error; every function taking a mode ends up here."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective at one active-surface position: SNR (wit) or watts (wpt)."""

    value: float
    airs_index: int
    mode: str

    def __post_init__(self):
        check_mode(self.mode)
        if self.value < 0.0:
            raise ValueError("objective values are nonnegative")


def effective_gain(airs_index: int, budget: LinkBudget, num_irs: int) -> float:
    """Transmitter-to-active-surface power gain kappa_b^2 * (Np*kappa_i)^(2(l-1)).

    Strictly decreasing in the index exactly when np_kappa_i < 1.
    """
    check_airs_index(airs_index, num_irs)
    return math.exp(
        2.0 * math.log(budget.kappa_b)
        + 2.0 * (airs_index - 1) * math.log(budget.np_kappa_i)
    )


def _log_terms(p: SystemParams, budget: LinkBudget, airs_index: int):
    log_npk = math.log(budget.np_kappa_i)
    log_ca = math.log(budget.c_a)
    log_ct = math.log(budget.c_t)
    log_s2 = math.log(p.noise_power)
    j = p.num_irs
    l = airs_index
    return log_npk, log_ca, log_ct, log_s2, j, l


def _ratio_of_term_sums(log_num_terms: list[float], log_den_terms: list[float]) -> float:
    """exp-sum ratio that keeps both range safety and relative precision.

    Factoring out each side's largest term caps every exponential at 1,
    so extreme exponents cannot overflow, while the residual sums stay in
    linear domain where sub-ulp-of-log differences (which decide argmax
    ties between adjacent indices) remain representable.
    """
    m_num = max(log_num_terms)
    m_den = max(log_den_terms)
    s_num = math.fsum(math.exp(t - m_num) for t in log_num_terms)
    s_den = math.fsum(math.exp(t - m_den) for t in log_den_terms)
    return math.exp(m_num - m_den) * (s_num / s_den)


def snr_closed(p: SystemParams, airs_index: int, budget: LinkBudget | None = None) -> float:
    """Receiver SNR under optimal beam, phases, and amplification."""
    if budget is None:
        budget = derive_link_budget(p)
    check_airs_index(airs_index, p.num_irs)
    log_npk, log_ca, log_ct, log_s2, j, l = _log_terms(p, budget, airs_index)
    log_num = log_ca + log_ct + math.log(p.airs_elements) + 2.0 * (j - 1) * log_npk
    den_terms = [
        log_s2 + log_ca + 2.0 * (j - l) * log_npk,   # amplified surface noise
        log_s2 + log_ct + 2.0 * (l - 1) * log_npk,   # receiver AWGN, signal-scaled
        2.0 * log_s2,                                # receiver AWGN floor
    ]
    return _ratio_of_term_sums([log_num], den_terms)


def power_closed(p: SystemParams, airs_index: int, budget: LinkBudget | None = None) -> float:
    """Received signal-plus-amplification-noise power (watts) at the optimum."""
    if budget is None:
        budget = derive_link_budget(p)
    check_airs_index(airs_index, p.num_irs)
    log_npk, log_ca, log_ct, log_s2, j, l = _log_terms(p, budget, airs_index)
    num_terms = [
        log_ca + log_ct + math.log(p.airs_elements) + 2.0 * (j - 1) * log_npk,
        log_s2 + log_ca + 2.0 * (j - l) * log_npk,
    ]
    den_terms = [log_ct + 2.0 * (l - 1) * log_npk, log_s2]
    return _ratio_of_term_sums(num_terms, den_terms)


def objective(mode: str, p: SystemParams, airs_index: int,
              budget: LinkBudget | None = None) -> ObjectiveValue:
    """Evaluate the selected objective at one active-surface position."""
    # dispatch by name, not through a dict of functions: a wrapper installed on
    # the module attribute (perfbench/tracing.py does this) must see every call
    if mode == WIT:
        value = snr_closed(p, airs_index, budget)
    elif mode == WPT:
        value = power_closed(p, airs_index, budget)
    else:
        check_mode(mode)  # raises: mode is neither WIT nor WPT
    return ObjectiveValue(value=value, airs_index=airs_index, mode=mode)


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
