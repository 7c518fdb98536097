"""The three classical 2x2 games and a minimal classical solver."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Bimatrix:
    """A 2x2 bimatrix game.

    ``a`` and ``b`` hold Alice's and Bob's payoffs in the flat order
    (cell 00, 01, 10, 11), where index 0 is the first move named by the
    game (C for pd/chicken, O for bos) and the first index is Alice's row.
    """

    name: str
    a: tuple[float, float, float, float]
    b: tuple[float, float, float, float]

    def cell(self, i: int, j: int) -> tuple[float, float]:
        k = 2 * i + j
        return self.a[k], self.b[k]


_BUILTIN = {
    "pd": Bimatrix("pd", (3, 0, 5, 1), (3, 5, 0, 1)),
    "bos": Bimatrix("bos", (2, 0, 0, 1), (1, 0, 0, 2)),
    "chicken": Bimatrix("chicken", (3, 1, 4, 0), (3, 4, 1, 0)),
}
GAME_NAMES = tuple(_BUILTIN)


def builtin_game(name: str) -> Bimatrix:
    """Prisoner's Dilemma (``pd``), Battle of the Sexes (``bos``) or
    ``chicken``."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown game {name!r}; choose from {', '.join(GAME_NAMES)}"
        ) from None


def classical_pure_nash(g: Bimatrix) -> set[tuple[int, int]]:
    """All cells where neither player gains by a unilateral flip."""
    out = set()
    for i in (0, 1):
        for j in (0, 1):
            a_here, b_here = g.cell(i, j)
            a_flip, _ = g.cell(1 - i, j)
            _, b_flip = g.cell(i, 1 - j)
            if a_here >= a_flip and b_here >= b_flip:
                out.add((i, j))
    return out
