"""Optimal placement of the active surface along the reflection chain.

One solver, ``optimal_index``, evaluates the objective once at every
position and reads everything else from that vector.  The exhaustive-scan
answer is its first argmax.  For information transfer the closed form
picks the better neighbour of a relaxed stationary point from the same
vector; for power transfer the final position always wins.  Every solve
thus carries its own brute-force cross-check at no extra objective call.
The module also evaluates the two baselines (middle placement,
all-passive chain) the closed forms are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .metrics import WIT, WPT, ObjectiveValue, check_mode, objective
from .params import LinkBudget, SystemParams, derive_link_budget

CASE_FALLBACK = "brute-force-fallback"
CASE_FINAL = "final"


@dataclass(frozen=True)
class DeploymentSolution:
    """Chosen index, its objective, and how the solver got there.

    ``case`` is "I"/"II"/"III" for the closed-form information-transfer
    branches, "final" for power transfer, and "brute-force-fallback" when
    the closed form does not apply (np_kappa_i >= 1).  ``relaxed_index``
    is the real-valued stationary point when one exists.
    ``objectives[l - 1]`` is the objective value at position l, and
    ``brute_force_index`` is its first argmax.
    """

    airs_index: int
    objective: ObjectiveValue
    case: str
    relaxed_index: float | None
    brute_force_index: int
    brute_force_agrees: bool
    objectives: tuple[float, ...]


def _wit_closed_form(budget: LinkBudget, j: int,
                     objectives: tuple[float, ...]) -> tuple[int, str, float | None]:
    """Closed-form SNR-optimal index as (index, case, relaxed index).

    With np_kappa_i < 1 the relaxed optimum sits at
    (J+1)/2 + log(c_a/c_t) / (4 log(np_kappa_i)); the integer answer is
    the better of its floor/ceil neighbours unless the stationary point
    leaves [1, J], in which case the boundary index wins.
    """
    if budget.c_a < budget.c_t:
        case = "I"
    elif budget.c_a > budget.c_t:
        case = "III"
    else:
        case = "II"
    if j == 1:
        return 1, case, None

    log_ratio = math.log(budget.c_a) - math.log(budget.c_t)
    log_npk = math.log(budget.np_kappa_i)
    relaxed = (j + 1) / 2.0 + log_ratio / (4.0 * log_npk)
    # stationary point at or beyond a boundary: the boundary index is optimal
    if case == "I" and 2.0 * (j - 1) * log_npk >= log_ratio:
        return j, case, relaxed
    if case == "III" and 2.0 * (j - 1) * log_npk >= -log_ratio:
        return 1, case, relaxed

    lo = min(max(math.floor(relaxed), 1), j)
    hi = min(max(math.ceil(relaxed), 1), j)
    best = hi if objectives[hi - 1] > objectives[lo - 1] else lo  # ties keep lo
    return best, case, relaxed


def optimal_index(mode: str, p: SystemParams,
                  budget: LinkBudget | None = None) -> DeploymentSolution:
    """Place the active surface for "wit" (SNR) or "wpt" (received power).

    The objective is evaluated exactly once per position.  Information
    transfer takes the closed-form index, power transfer the final one
    while np_kappa_i < 1; outside that regime the exhaustive-scan answer
    is used.
    """
    if budget is None:
        budget = derive_link_budget(p)
    j = p.num_irs
    # from a list, not a generator: tuple(<genexpr>) grows by resizing, which
    # fragmented the heap enough to add ~1 MB of peak RSS over many solves
    objectives = tuple([objective(mode, p, l, budget).value for l in range(1, j + 1)])
    brute = objectives.index(max(objectives)) + 1  # ties keep the smaller index

    relaxed = None
    if not budget.f_decreasing:
        index, case = brute, CASE_FALLBACK
    elif mode == WPT:
        index, case = j, CASE_FINAL
    else:
        index, case, relaxed = _wit_closed_form(budget, j, objectives)
    return DeploymentSolution(
        airs_index=index,
        objective=ObjectiveValue(objectives[index - 1], index, mode),
        case=case,
        relaxed_index=relaxed,
        brute_force_index=brute,
        brute_force_agrees=index == brute,
        objectives=objectives,
    )


def middle_index(num_irs: int) -> int:
    # round-half-down of (J+1)/2; exact midpoint for odd J
    return (num_irs + 1) // 2


def scheme_middle(mode: str, p: SystemParams,
                  budget: LinkBudget | None = None) -> ObjectiveValue:
    """Baseline that parks the active surface at the middle of the chain."""
    return objective(mode, p, middle_index(p.num_irs), budget)


def scheme_all_pirs(mode: str, p: SystemParams,
                    budget: LinkBudget | None = None) -> float:
    """All-passive baseline with the transmit power raised by the saved budget.

    The active surface is swapped for a passive one and the transmitter
    spends tx_power + airs_elements * amp_power, so both schemes draw the
    same total power.  Returns an SNR for "wit" and watts for "wpt".
    """
    check_mode(mode)
    if budget is None:
        budget = derive_link_budget(p)
    boosted = p.tx_power + p.airs_elements * p.amp_power
    log_signal = (
        math.log(boosted)
        + math.log(p.bs_antennas)
        + 2.0 * math.log(budget.kappa_b)
        + 2.0 * math.log(budget.kappa_u)
        + 2.0 * math.log(p.pirs_elements)
        + 2.0 * (p.num_irs - 1) * math.log(budget.np_kappa_i)
    )
    if mode == WIT:
        log_signal -= math.log(p.noise_power)
    return math.exp(log_signal)


def crossover_threshold(airs_elements: float, amp_power: float, tx_power: float,
                        bs_antennas: float, kappa_b: float, kappa_i: float,
                        num_irs: int) -> float:
    """Panel size below which the active chain out-delivers the all-passive one.

    Vanishing-noise limit of the received-power comparison; valid as a
    strict crossover only in that regime.
    """
    drive = bs_antennas * kappa_b**2 * (tx_power + amp_power * airs_elements)
    log_thr = (
        (math.log(airs_elements**2 * amp_power) - math.log(drive)) / (2.0 * num_irs)
        + (1.0 - num_irs) / num_irs * math.log(kappa_i)
    )
    return math.exp(log_thr)


def wpt_crossover_np(p: SystemParams, budget: LinkBudget | None = None) -> float:
    """Crossover panel size for the configured system."""
    if budget is None:
        budget = derive_link_budget(p)
    return crossover_threshold(p.airs_elements, p.amp_power, p.tx_power,
                               p.bs_antennas, budget.kappa_b, budget.kappa_i,
                               p.num_irs)


@dataclass(frozen=True)
class RatioReport:
    """Optimal-scheme gain over both baselines, three ways each.

    ``*_exact`` divides the actual objectives.  ``*_closed`` is the
    closed-form ratio: an algebraic identity for power transfer (exact
    when the chain length is odd, so the middle index is integral), a
    lower bound for information transfer.  ``*_limit`` is the closed
    form's vanishing-noise value.
    """

    mode: str
    optimal_index: int
    vs_middle_exact: float
    vs_middle_closed: float
    vs_middle_limit: float
    vs_all_pirs_exact: float
    vs_all_pirs_closed: float
    vs_all_pirs_limit: float


def ratio_diagnostics(mode: str, p: SystemParams,
                      budget: LinkBudget | None = None) -> RatioReport:
    if budget is None:
        budget = derive_link_budget(p)
    sol = optimal_index(mode, p, budget)
    mid = scheme_middle(mode, p, budget)
    passive = scheme_all_pirs(mode, p, budget)
    j = p.num_irs
    s2 = p.noise_power
    c_a, c_t = budget.c_a, budget.c_t
    n_a = p.airs_elements
    x = budget.np_kappa_i ** (j - 1)

    if mode == WPT:
        rho1_num = s2 * c_t * x * (1.0 - x) * (1.0 - n_a)
        rho1_den = (c_t * x**2 + s2) * (c_t * n_a * x + s2)
        vs_mid_closed = (1.0 + rho1_num / rho1_den) / x
        vs_mid_limit = 1.0 / x
        base = c_a * n_a / (
            p.pirs_elements ** (2 * j) * budget.kappa_i ** (2 * (j - 1))
            * (c_t * budget.kappa_u**2 + c_a * p.bs_antennas * budget.kappa_b**2)
        )
        rho2 = s2 * (1.0 - n_a) / (c_t * n_a * x**2 + n_a * s2)
        vs_all_closed = base * (1.0 + rho2)
        vs_all_limit = base
    else:  # WIT; optimal_index has already rejected any other mode
        inv_x = 1.0 / x
        vs_mid_closed = (c_a + c_t + s2 * inv_x) / (c_a * inv_x + c_t * x + s2 * inv_x)
        vs_mid_limit = inv_x * (c_a + c_t) / (c_a * inv_x**2 + c_t)
        gain = n_a**2 * p.tx_power * p.amp_power / (
            (p.tx_power + n_a * p.amp_power) * p.pirs_elements**2
        )
        vs_all_closed = gain / (c_a + c_t * x**2 + s2)
        vs_all_limit = gain / (c_a + c_t * x**2)

    return RatioReport(
        mode=mode,
        optimal_index=sol.airs_index,
        vs_middle_exact=sol.objective.value / mid.value,
        vs_middle_closed=vs_mid_closed,
        vs_middle_limit=vs_mid_limit,
        vs_all_pirs_exact=sol.objective.value / passive,
        vs_all_pirs_closed=vs_all_closed,
        vs_all_pirs_limit=vs_all_limit,
    )


def agreement_grid(base: SystemParams | None = None) -> list[SystemParams]:
    """Deterministic parameter grid for closed-form vs exhaustive checks.

    Crosses chain length, panel size, and +-20 dB around the default
    transmit power, amplification budget, and active-element count; every
    point stays in the np_kappa_i < 1 regime of the default geometry.
    """
    if base is None:
        base = SystemParams()
    grid = []
    np_values = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    for j in range(1, 10):
        for n_p in np_values:
            for pt_scale in (0.01, 1.0, 100.0):
                for pa_scale in (0.01, 1.0, 100.0):
                    for na_scale in (0.1, 1.0, 10.0):
                        grid.append(replace(
                            base,
                            num_irs=j,
                            pirs_elements=n_p,
                            pirs_grid=None,
                            tx_power=base.tx_power * pt_scale,
                            amp_power=base.amp_power * pa_scale,
                            airs_elements=max(1, round(base.airs_elements * na_scale)),
                            airs_grid=None,
                        ))
    return grid
