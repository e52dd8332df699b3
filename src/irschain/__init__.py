"""Cascaded multi-surface LoS link: channel model, beamforming, placement.

A multi-antenna transmitter reaches a single-antenna receiver through a
chain of J reflecting surfaces, one of which is active (amplifying).  The
package evaluates the link in two equivalent ways, a matrix oracle built
from each surface's reflection-coefficient sum and closed-form
expressions, and solves for the active surface's optimal position in
closed form for both SNR and received-power objectives, cross-validated
by exhaustive search over the same objective vector.

The package re-exports nothing: import each name from its defining module.
"""

__version__ = "0.1.0"
