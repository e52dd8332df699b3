"""Closed-form link objectives.

Both objectives collapse to ratios of a handful of positive terms of the
form const * (pirs_elements * kappa_i)**(2k).  Those powers reach the
underflow edge of double precision well before the model breaks down, so
every term is assembled in log domain and combined with logaddexp.  The
position-independent logs come from the ``LinkBudget`` the caller
passes.  An SNR position is one ``objective`` call (``snr_closed`` is
its named form): an inline index test, a multiply-add per
position-dependent term, the denominator shifted by its largest term, and
three exps for its fsum and one for the ratio.  The power is written once,
as ``power_values``, a loop over positions that reads the budget into
locals once; ``objective`` (and so ``power_closed``) runs it on its one
position.  Each position takes one exp for the ratio and two more only
when a sum's partner term exceeds NEGLIGIBLE_LOG.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .params import LinkBudget, SystemParams, check_airs_index, out_of_range_message

WIT = "wit"  # information transfer: maximize receiver SNR
WPT = "wpt"  # power transfer: maximize received signal-plus-noise power

MODES = (WIT, WPT)

NEGLIGIBLE_LOG = -38.0  # exp(-38) ~ 3.1e-17 < 2**-54: 1.0 + exp(x <= this) rounds to 1.0


def check_mode(mode: str) -> None:
    """Raise the one unknown-mode error; every function taking a mode ends up here."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def snr_closed(p: SystemParams, airs_index: int, budget: LinkBudget) -> float:
    """Receiver SNR under optimal beam, phases, and amplification."""
    return objective(WIT, p, airs_index, budget)


def power_closed(p: SystemParams, airs_index: int, budget: LinkBudget) -> float:
    """Received signal-plus-amplification-noise power (watts) at the optimum."""
    return objective(WPT, p, airs_index, budget)


def objective(mode: str, p: SystemParams, airs_index: int, budget: LinkBudget) -> float:
    """SNR ("wit") or received watts ("wpt") at one active-surface position.

    ``airs_index`` may be real, as (J+1)/2.  An overflow (of the final exp, or the power's
    product to inf) raises ``ValueError`` naming every field that feeds the objective.
    """
    if mode != WIT and mode != WPT:
        check_mode(mode)  # raises, before the budget or the index is looked at
    j, l = p.num_irs, airs_index
    if not 1 <= l <= j:
        check_airs_index(l, j)  # raises, with the one index message
    if mode == WPT:
        return power_values(p, budget, (l,))[0]
    try:  # every exp but the final one takes a non-positive argument
        log_npk = budget.log_np_kappa_i
        amp = budget.log_noise_c_a + 2.0 * (j - l) * log_npk    # amplified surface noise
        awgn = budget.log_noise_c_t + 2.0 * (l - 1) * log_npk   # receiver AWGN, signal-scaled
        floor = budget.log_noise_floor                          # receiver AWGN floor
        # max() without the call; on a tie both branches take the same shift
        m = amp if amp >= awgn else awgn
        m = m if m >= floor else floor
        # fsum, not sum: a plain 3-term sum rounds differently, and sub-ulp gaps decide ties
        den = math.fsum((math.exp(amp - m), math.exp(awgn - m), math.exp(floor - m)))
        return math.exp(budget.log_signal - m) * (1.0 / den)
    except OverflowError:
        pass
    raise ValueError(out_of_range_message(p, "objective"))


def power_values(p: SystemParams, budget: LinkBudget,
                 positions: Iterable[float]) -> list[float]:
    """Received watts at each of ``positions``, in order, each in [1, J] and possibly real.

    The one copy of the power formula: the budget's logs are read into locals
    once, so a position pays only its own arithmetic.  Positions are not
    checked (``objective`` does that for one).  A position out of double range
    raises ``ValueError`` naming every field that feeds the objective.
    """
    j = p.num_irs
    # doubling is exact, so (j - l) * two_log_npk rounds as 2.0 * (j - l) * log_npk does
    two_log_npk = 2.0 * budget.log_np_kappa_i
    log_noise_c_a = budget.log_noise_c_a
    log_c_t = budget.log_c_t
    log_s2 = budget.log_noise_power
    signal = budget.log_signal
    exp = math.exp
    values = []
    append = values.append
    try:  # every exp but the ratio's takes a non-positive argument
        for l in positions:
            amp = log_noise_c_a + (j - l) * two_log_npk   # amplified surface noise
            incident = log_c_t + (l - 1) * two_log_npk
            # Each sum is shifted by its larger term, whose exp is exp(0.0) == 1.0
            # exactly, so only its partner t (u) needs an exp.  One IEEE addition is
            # correctly rounded and commutes, so 1.0 + exp(t) equals fsum of both exps,
            # and a tie still gives 2.0.  With both partners <= NEGLIGIBLE_LOG the
            # factor is exactly 1.0 / 1.0, so it is skipped: one exp, the same bits.
            if signal >= amp:
                m_num, t = signal, amp - signal
            else:
                m_num, t = amp, signal - amp
            if incident >= log_s2:
                m_den, u = incident, log_s2 - incident
            else:
                m_den, u = log_s2, incident - log_s2
            watts = exp(m_num - m_den)
            if t > NEGLIGIBLE_LOG or u > NEGLIGIBLE_LOG:
                watts *= (1.0 + exp(t)) / (1.0 + exp(u))
            append(watts)
    except OverflowError:
        pass
    else:  # the factor is up to 2: a finite exp can still round to inf
        if math.inf not in values:
            return values
    raise ValueError(out_of_range_message(p, "objective"))
