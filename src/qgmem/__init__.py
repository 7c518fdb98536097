"""Two-player quantum games played through noisy channels with memory.

Closed-form payoffs for the nine channel pairings, an independent
Kraus-operator oracle, classical bimatrix games, grid equilibrium search,
and a CLI for sweeps and figure-data reproduction.
"""

from .channels import ChannelKind, ChannelSpec, KrausSet
from .closedform import (Pairing, ad_coeffs, closed_payoff, closed_payoff_pair,
                         dephasing_coeff, depol_coeffs, pairing_weights,
                         payoff_surface)
from .equilibrium import CASE_IDS, StrategySpace, case_study, check_profile
from .games import Bimatrix, builtin_game, classical_pure_nash
from .oracle import two_pass_state
from .protocol import EntanglementParams, StrategyParams

__all__ = [
    "Bimatrix",
    "CASE_IDS",
    "ChannelKind",
    "ChannelSpec",
    "EntanglementParams",
    "KrausSet",
    "Pairing",
    "StrategyParams",
    "StrategySpace",
    "ad_coeffs",
    "builtin_game",
    "case_study",
    "check_profile",
    "classical_pure_nash",
    "closed_payoff",
    "closed_payoff_pair",
    "dephasing_coeff",
    "depol_coeffs",
    "pairing_weights",
    "payoff_surface",
    "two_pass_state",
]
