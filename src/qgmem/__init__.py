"""Two-player quantum games played through noisy channels with memory.

Closed-form payoffs for the nine channel pairings, an independent
Kraus-operator oracle, classical bimatrix games, grid equilibrium search,
and a CLI for sweeps and figure-data reproduction.
"""
