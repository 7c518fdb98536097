import itertools

import pytest

from reference import classical_expected, swapped, theta_weight

from qgmem.games import Bimatrix, builtin_game, classical_pure_nash


class TestBuiltins:
    def test_prisoners_dilemma_cells(self):
        g = builtin_game("pd")
        assert g.cell(1, 1) == (1, 1)
        assert g.cell(0, 0) == (3, 3)
        assert g.cell(1, 0) == (5, 0)

    def test_battle_of_sexes_cells(self):
        g = builtin_game("bos")
        assert g.cell(0, 0) == (2, 1)
        assert g.cell(1, 1) == (1, 2)

    def test_chicken_cells(self):
        g = builtin_game("chicken")
        assert g.cell(0, 1) == (1, 4)
        assert g.cell(1, 0) == (4, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown game 'matching-pennies'"):
            builtin_game("matching-pennies")


class TestPureNash:
    @pytest.mark.parametrize("name,expected", [
        ("pd", {(1, 1)}),
        ("bos", {(0, 0), (1, 1)}),
        ("chicken", {(0, 1), (1, 0)}),
    ])
    def test_builtin_equilibria(self, name, expected):
        assert classical_pure_nash(builtin_game(name)) == expected

    def test_agrees_with_exhaustive_check(self, rng):
        for _ in range(50):
            g = Bimatrix("r", tuple(rng.uniform(-3, 3) for _ in range(4)),
                         tuple(rng.uniform(-3, 3) for _ in range(4)))
            expected = set()
            for i, j in itertools.product((0, 1), repeat=2):
                a_here, b_here = g.cell(i, j)
                if (a_here >= g.cell(1 - i, j)[0]
                        and b_here >= g.cell(i, 1 - j)[1]):
                    expected.add((i, j))
            assert classical_pure_nash(g) == expected


class TestExpected:
    def test_pure_corners(self):
        g = builtin_game("pd")
        assert classical_expected(g, 0, 0) == (1, 1)
        assert classical_expected(g, 1, 1) == (3, 3)
        for (i, j) in itertools.product((0, 1), repeat=2):
            assert classical_expected(g, 1 - i, 1 - j) == g.cell(i, j)

    def test_uniform_mixture(self):
        # average of the four cells
        assert classical_expected(builtin_game("bos"), 0.5, 0.5) == (0.75, 0.75)

    def test_range_error(self):
        with pytest.raises(ValueError):
            classical_expected(builtin_game("pd"), 1.5, 0.5)

    def test_bilinear(self, rng):
        g = builtin_game("chicken")
        x, y = rng.random(), rng.random()
        pa, pb = classical_expected(g, x, y)
        manual_a = sum(wi * wj * g.cell(i, j)[0]
                       for i, wi in ((0, x), (1, 1 - x))
                       for j, wj in ((0, y), (1, 1 - y)))
        assert pa == pytest.approx(manual_a, abs=1e-12)
        assert pb == pytest.approx(pb, abs=1e-12)


def test_theta_weight_endpoints():
    import math
    assert theta_weight(0.0) == 1.0
    assert theta_weight(math.pi) == pytest.approx(0.0, abs=1e-30)


def test_swapped_reverses_roles():
    g = builtin_game("chicken")
    s = swapped(g)
    for i in (0, 1):
        for j in (0, 1):
            a, b = g.cell(i, j)
            a2, b2 = s.cell(j, i)
            assert (a2, b2) == (b, a)
