"""Optimal placement of the active surface along the reflection chain.

One solver, ``optimal_index``, evaluates the objective once at every
position and reads everything else from that vector.  For power transfer
the vector is one ``metrics.power_values`` loop, which reads the budget
once; for information transfer it is one ``objective`` call per position,
the calls the benchmark's tracer counts.  The exhaustive-scan answer is
the vector's first argmax.  For information transfer the closed form
picks the better neighbour of a relaxed stationary point from the same
vector; for power transfer the final position always wins.  Every solve
thus carries its own brute-force cross-check at no extra evaluation.
Each solve also carries the middle-placement baseline; ``scheme_all_pirs``
gives the log of the all-passive one, a sum of budget logs that is finite
wherever the budget derives, even where its linear value is not.  The
commands print all three in dB: a gain over a baseline is a column difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .metrics import WIT, WPT, check_mode, objective, power_values
from .params import LinkBudget, SystemParams

CASE_FALLBACK = "brute-force-fallback"
CASE_FINAL = "final"


@dataclass(frozen=True, init=False)
class DeploymentSolution:
    """Chosen index, its objective, and how the solver got there.

    ``case`` is "I"/"II"/"III" for the closed-form information-transfer
    branches, "final" for power transfer, and "brute-force-fallback" when
    the closed form does not apply (np_kappa_i >= 1).  ``relaxed_index``
    is the real-valued stationary point when one exists.
    ``objectives[l - 1]`` is the objective value at position l, so
    ``objective`` is ``objectives[airs_index - 1]`` and
    ``brute_force_index`` is the first argmax.  The middle-placement
    baseline rides along: ``middle_objective`` is
    ``objectives[middle_index(J) - 1]``.  The written-out keyword-only
    ``__init__`` stores all eight fields in one step (a missing or unknown
    field still raises ``TypeError``); the record is still frozen.
    """

    airs_index: int
    objective: float
    case: str
    relaxed_index: float | None
    brute_force_index: int
    brute_force_agrees: bool
    objectives: tuple[float, ...]
    middle_objective: float

    def __init__(self, *, airs_index: int, objective: float, case: str,
                 relaxed_index: float | None, brute_force_index: int,
                 brute_force_agrees: bool, objectives: tuple[float, ...],
                 middle_objective: float):
        # one dict update instead of a frozen object.__setattr__ per field
        vars(self).update(
            airs_index=airs_index, objective=objective, case=case,
            relaxed_index=relaxed_index, brute_force_index=brute_force_index,
            brute_force_agrees=brute_force_agrees, objectives=objectives,
            middle_objective=middle_objective)


def _wit_closed_form(budget: LinkBudget, j: int,
                     objectives: tuple[float, ...]) -> tuple[int, str, float | None]:
    """Closed-form SNR-optimal index as (index, case, relaxed index).

    With np_kappa_i < 1 the relaxed optimum sits at
    (J+1)/2 + log(c_a/c_t) / (4 log(np_kappa_i)); the integer answer is
    the better of its floor/ceil neighbours, each clamped to [1, J].  A
    stationary point at or beyond a boundary thus gives the boundary
    index: J in case I, 1 in case III.  It is clamped before rounding, since
    the finite logs' difference can round to inf, and inf/inf to nan, which
    floor and ceil reject; max(1.0, nan) puts nan at 1.
    """
    if budget.log_c_a < budget.log_c_t:
        case = "I"
    elif budget.log_c_a > budget.log_c_t:
        case = "III"
    else:
        case = "II"
    if j == 1:
        return 1, case, None

    relaxed = (j + 1) / 2.0 + (budget.log_c_a - budget.log_c_t) / (4.0 * budget.log_np_kappa_i)
    clamped = max(1.0, min(relaxed, float(j)))
    lo, hi = math.floor(clamped), math.ceil(clamped)
    best = hi if objectives[hi - 1] > objectives[lo - 1] else lo  # ties keep lo
    return best, case, relaxed


def optimal_index(mode: str, p: SystemParams, budget: LinkBudget) -> DeploymentSolution:
    """Place the active surface for "wit" (SNR) or "wpt" (received power).

    The objective is evaluated exactly once per position: power transfer
    in one ``power_values`` loop, information transfer in one ``objective``
    call per position.  Information transfer takes the closed-form index,
    power transfer the final one while np_kappa_i < 1; outside that regime
    the exhaustive-scan answer is used.  Either evaluation raises the
    out-of-double-range ``ValueError``.
    """
    j = p.num_irs
    # Power transfer is one loop that reads the budget once.  Information transfer
    # stays one ``objective`` call per position: the benchmark's tracer counts those
    # calls, and its own tests require at least J of them on a default WIT point.
    # From a list, not a generator: tuple(<genexpr>) grows by resizing, which
    # fragmented the heap enough to add ~1 MB of peak RSS over many solves.
    if mode == WPT:
        objectives = tuple(power_values(p, budget, range(1, j + 1)))
    else:
        objectives = tuple([objective(mode, p, l, budget) for l in range(1, j + 1)])
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
        objective=objectives[index - 1],
        case=case,
        relaxed_index=relaxed,
        brute_force_index=brute,
        brute_force_agrees=index == brute,
        objectives=objectives,
        middle_objective=objectives[middle_index(j) - 1],
    )


def middle_index(num_irs: int) -> int:
    # round-half-down of (J+1)/2; exact midpoint for odd J
    return (num_irs + 1) // 2


def scheme_middle(mode: str, p: SystemParams, budget: LinkBudget) -> float:
    """Baseline that parks the active surface at the middle of the chain."""
    return objective(mode, p, middle_index(p.num_irs), budget)


def _logaddexp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), shifted by the larger term (Blanchard, Higham & Higham,
    IMA J. Numer. Anal. 2021): the sum, which can leave double range, never forms."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def scheme_all_pirs(mode: str, p: SystemParams, budget: LinkBudget) -> float:
    """Natural log of the all-passive baseline, with the transmit power raised by
    the saved budget.

    The active surface is swapped for a passive one and the transmitter
    spends tx_power + airs_elements * amp_power, so both schemes draw the
    same total power.  Returns the log SNR for "wit" and the log watts for
    "wpt": a sum of finite budget logs, so finite wherever the budget derives.
    """
    check_mode(mode)
    log_power = (
        _logaddexp(math.log(p.tx_power), math.log(p.airs_elements) + math.log(p.amp_power))
        + math.log(p.bs_antennas)
        + 2.0 * budget.log_kappa_b
        + 2.0 * budget.log_kappa_u
        + 2.0 * math.log(p.pirs_elements)
        + 2.0 * (p.num_irs - 1) * budget.log_np_kappa_i
    )
    return log_power - budget.log_noise_power if mode == WIT else log_power


def wpt_crossover_np(p: SystemParams, budget: LinkBudget) -> float:
    """Panel size below which the active chain out-delivers the all-passive one.

    The all-passive power grows as pirs_elements**(2J); this is the panel
    size at which it reaches c_a * airs_elements, the active chain's
    vanishing-noise power.  Valid as a strict crossover only in that regime.
    Returns ``math.inf`` when the panel size leaves double range.
    """
    log_gap = budget.log_c_a + math.log(p.airs_elements) - scheme_all_pirs(WPT, p, budget)
    try:
        return math.exp(math.log(p.pirs_elements) + log_gap / (2.0 * p.num_irs))
    except OverflowError:
        return math.inf


def agreement_grid() -> list[SystemParams]:
    """Deterministic parameter grid for closed-form vs exhaustive checks.

    Crosses chain length, panel size, and +-20 dB around the default
    transmit power, amplification budget, and active-element count; every
    point stays in the np_kappa_i < 1 regime of the default geometry.
    """
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
