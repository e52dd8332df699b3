"""Cascaded multi-surface LoS link: channel model, beamforming, placement.

A multi-antenna transmitter reaches a single-antenna receiver through a
chain of J reflecting surfaces, one of which is active (amplifying).  The
package evaluates the link in two equivalent ways, a full complex-matrix
cascade and closed-form expressions, and solves for the active surface's
optimal position in closed form for both SNR and received-power
objectives, cross-validated by exhaustive search over the same
objective vector.
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
    chain_geometry,
    effective_channels,
    full_power,
    full_snr,
    incident_element_power,
    los_channel,
    random_geometry,
    steering_vector,
    upa_response,
)
from .beamforming import (
    amplification_factor,
    check_power_constraint,
    optimal_configuration,
    optimal_reflection_phases,
    optimal_transmit_beam,
)
from .metrics import (
    WIT,
    WPT,
    ObjectiveValue,
    effective_gain,
    power_closed,
    power_scaling_order,
    snr_closed,
    snr_scaling_order,
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
    "HopGeometry", "PhaseConfig", "chain_geometry", "effective_channels",
    "full_power", "full_snr", "incident_element_power", "los_channel",
    "random_geometry", "steering_vector", "upa_response",
    "amplification_factor", "check_power_constraint", "optimal_configuration",
    "optimal_reflection_phases", "optimal_transmit_beam",
    "WIT", "WPT", "ObjectiveValue", "effective_gain", "power_closed",
    "power_scaling_order", "snr_closed", "snr_scaling_order",
    "DeploymentSolution", "RatioReport", "optimal_index", "ratio_diagnostics",
    "scheme_all_pirs", "scheme_middle", "wpt_crossover_np",
]
