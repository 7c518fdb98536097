import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import is_density, noiseless_final_state

from qgmem.protocol import (EntanglementParams, StrategyParams, initial_density,
                            measure_payoff, measurement_basis, payoff_operator,
                            strategy_unitary)
from qgmem.qmat import dagger

PI = math.pi
I4 = np.eye(4, dtype=complex)

angles = st.floats(min_value=-PI, max_value=PI, allow_nan=False)
thetas = st.floats(min_value=0.0, max_value=PI, allow_nan=False)


class TestParams:
    @pytest.mark.parametrize("field,value", [
        ("theta", -0.1), ("theta", PI + 0.1),
        ("alpha", -PI - 0.1), ("beta", PI + 0.1),
    ])
    def test_strategy_range(self, field, value):
        kwargs = dict(theta=1.0, alpha=0.0, beta=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            StrategyParams(**kwargs)

    def test_classical_constructor(self):
        s = StrategyParams(1.2)
        assert (s.alpha, s.beta) == (0.0, 0.0)

    def test_entanglement_range(self):
        with pytest.raises(ValueError):
            EntanglementParams(PI, 0.0)
        with pytest.raises(ValueError):
            EntanglementParams(0.0, -0.01)
        with pytest.raises(ValueError):
            EntanglementParams(0.0, PI / 2 + 0.01)


class TestInitialDensity:
    def test_unentangled(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.array_equal(initial_density(0.0), expected)

    def test_maximally_entangled(self):
        psi = np.array([1, 0, 0, 1j]) / math.sqrt(2)
        assert np.allclose(initial_density(PI / 2), np.outer(psi, psi.conj()), atol=1e-15)

    def test_unit_trace_and_pure(self):
        rho = initial_density(0.7)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-15)
        assert np.trace(rho @ rho) == pytest.approx(1.0, abs=1e-15)

    def test_array_gamma_gives_a_stack(self):
        gammas = np.array([0.0, 0.4, PI / 2])
        stack = initial_density(gammas)
        assert stack.shape == (3, 4, 4)
        for rho, gamma in zip(stack, gammas):
            assert np.allclose(rho, initial_density(float(gamma)), atol=1e-15)


class TestStrategyUnitary:
    def test_identity_point(self):
        assert np.allclose(strategy_unitary(StrategyParams(0.0)), np.eye(2),
                           atol=1e-15)

    def test_pure_flip(self):
        u = strategy_unitary(StrategyParams(PI, 0.0, 0.0))
        assert np.allclose(u, np.array([[0, 1j], [1j, 0]]), atol=1e-15)

    def test_quarter_turn(self):
        # evaluated entrywise from the defining combination of the phase and
        # flip moves at theta=pi/2, alpha=pi/2, beta=0
        u = strategy_unitary(StrategyParams(PI / 2, PI / 2, 0.0))
        expected = np.array([[1j, 1j], [1j, -1j]]) / math.sqrt(2)
        assert np.allclose(u, expected, atol=1e-15)

    @given(thetas, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_unitary(self, theta, alpha, beta):
        u = strategy_unitary(StrategyParams(theta, alpha, beta))
        assert np.allclose(dagger(u) @ u, np.eye(2), atol=1e-12)


def outcome_projectors(delta):
    """Rank-1 projectors |v_ij><v_ij|, as the observables of one-hot payoffs."""
    return [payoff_operator(delta, tuple(row)) for row in np.eye(4)]


class TestMeasurement:
    def test_delta_zero_projectors(self):
        projs = outcome_projectors(0.0)
        for k, proj in enumerate(projs):
            expected = np.zeros((4, 4), dtype=complex)
            expected[k, k] = 1
            assert np.allclose(proj, expected, atol=1e-15)

    def test_completeness(self):
        assert np.allclose(sum(outcome_projectors(0.9)), I4, atol=1e-15)

    def test_orthogonality_by_multiplication(self):
        projs = outcome_projectors(PI / 3)
        assert np.allclose(projs[0] @ projs[3], 0, atol=1e-15)
        assert np.allclose(projs[1] @ projs[2], 0, atol=1e-15)

    @pytest.mark.parametrize("delta", np.linspace(0, PI / 2, 50))
    def test_orthonormal_basis(self, delta):
        basis = measurement_basis(delta)
        gram = basis.conj() @ basis.T
        assert np.allclose(gram, np.eye(4), atol=1e-12)


class TestPayoffOperator:
    def test_computational_diagonal(self):
        op = payoff_operator(0.0, (3, 0, 5, 1))
        assert np.allclose(op, np.diag([3, 0, 5, 1]), atol=1e-15)

    def test_all_ones_completeness(self):
        assert np.allclose(payoff_operator(0.77, (1, 1, 1, 1)), I4, atol=1e-12)

    def test_entangled_projector(self):
        op = payoff_operator(PI / 2, (1, 0, 0, 0))
        v = np.array([1, 0, 0, 1j]) / math.sqrt(2)
        assert np.allclose(op, np.outer(v, v.conj()), atol=1e-15)

    def test_eigenvalues_are_entries(self):
        entries = (3.0, 0.0, 5.0, 1.0)
        op = payoff_operator(0.83, entries)
        assert np.allclose(sorted(np.linalg.eigvalsh(op)), sorted(entries),
                           atol=1e-12)

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            payoff_operator(0.0, (1, 2, 3))


class TestFinalState:
    def test_identity_strategies_unentangled(self):
        rho = noiseless_final_state(0.0, StrategyParams(0.0), StrategyParams(0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1
        assert np.allclose(rho, expected, atol=1e-15)

    def test_identity_strategies_entangled(self):
        rho = noiseless_final_state(PI / 2, StrategyParams(0.0), StrategyParams(0.0))
        assert np.allclose(rho, initial_density(PI / 2), atol=1e-15)

    def test_valid_density(self, rng):
        for _ in range(30):
            rho = noiseless_final_state(
                rng.uniform(0, PI / 2),
                StrategyParams(rng.uniform(0, PI), rng.uniform(-PI, PI),
                               rng.uniform(-PI, PI)),
                StrategyParams(rng.uniform(0, PI), rng.uniform(-PI, PI),
                               rng.uniform(-PI, PI)))
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert is_density(rho, tol=1e-9)


class TestMeasurePayoff:
    def test_identity_observable(self, rng):
        rho = noiseless_final_state(1.0, StrategyParams(0.3), StrategyParams(2.0))
        assert measure_payoff(I4, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_outcome(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1
        assert measure_payoff(np.diag([3, 0, 5, 1]).astype(complex), rho) == 1

    def test_classical_defect_point(self):
        # gamma = delta = 0 with both players at theta = pi lands on the
        # mutual-defection cell of the Prisoner's Dilemma
        rho = noiseless_final_state(0.0, StrategyParams(PI), StrategyParams(PI))
        pa = measure_payoff(payoff_operator(0.0, (3, 0, 5, 1)), rho)
        pb = measure_payoff(payoff_operator(0.0, (3, 5, 0, 1)), rho)
        assert (pa, pb) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_probability_normalization(self, rng):
        for _ in range(20):
            rho = noiseless_final_state(
                rng.uniform(0, PI / 2),
                StrategyParams(rng.uniform(0, PI)),
                StrategyParams(rng.uniform(0, PI), rng.uniform(-PI, PI),
                               rng.uniform(-PI, PI)))
            op = payoff_operator(rng.uniform(0, PI / 2), (1, 1, 1, 1))
            assert measure_payoff(op, rho) == pytest.approx(1.0, abs=1e-12)

    def test_imaginary_residue_raises(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 3] = 1.0  # not Hermitian; picks up the state's i/2 coherence
        with pytest.raises(ArithmeticError):
            measure_payoff(bad, initial_density(PI / 2))
