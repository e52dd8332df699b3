"""Cascaded multi-surface LoS link: channel model, beamforming, placement.

A multi-antenna transmitter reaches a single-antenna receiver through a
chain of J reflecting surfaces, one of which is active (amplifying).  The
package evaluates the link in two equivalent ways, a matrix oracle built
from each surface's reflection-coefficient sum and closed-form
expressions, and solves for the active surface's optimal position in
closed form for both SNR and received-power objectives, cross-validated
by exhaustive search over the same objective vector.
"""

from .params import (
    Diagnostic,
    LinkBudget,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    derive_link_budget,
    fraunhofer_distance,
    linear_to_db,
    validate,
    watts_to_dbm,
)
from .channel import (
    HopGeometry,
    PhaseConfig,
    full_power,
    full_snr,
    random_geometry,
    upa_response,
)
from .beamforming import (
    amplification_factor,
    optimal_configuration,
    optimal_transmit_beam,
)
from .metrics import (
    WIT,
    WPT,
    power_closed,
    snr_closed,
)
from .deployment import (
    DeploymentSolution,
    RatioReport,
    optimal_index,
    ratio_diagnostics,
    scheme_all_pirs,
    scheme_middle,
    wpt_crossover_np,
)

__version__ = "0.1.0"

__all__ = [
    "Diagnostic", "LinkBudget", "SystemParams", "db_to_linear", "dbm_to_watts",
    "derive_link_budget", "fraunhofer_distance", "linear_to_db", "validate",
    "watts_to_dbm",
    "HopGeometry", "PhaseConfig", "full_power", "full_snr", "random_geometry",
    "upa_response",
    "amplification_factor", "optimal_configuration", "optimal_transmit_beam",
    "WIT", "WPT", "power_closed", "snr_closed",
    "DeploymentSolution", "RatioReport", "optimal_index", "ratio_diagnostics",
    "scheme_all_pirs", "scheme_middle", "wpt_crossover_np",
]
