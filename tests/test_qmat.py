import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import is_density, noiseless_final_state

from qgmem.channels import ChannelKind, ChannelSpec
from qgmem.protocol import EntanglementParams, StrategyParams, strategy_unitary
from qgmem.qmat import DOMAINS, PAULI, dagger, tensor

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

complex_entries = st.complex_numbers(max_magnitude=5, allow_nan=False,
                                     allow_infinity=False)


def random_matrix(draw_entries, dim=2):
    return np.array(draw_entries, dtype=complex).reshape(dim, dim)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(I2, I2), I4)

    def test_sigma_z_pair_is_diagonal(self):
        assert np.array_equal(tensor(PAULI[3], PAULI[3]),
                              np.diag([1, -1, -1, 1]).astype(complex))

    def test_basis_permutation(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(tensor(PAULI[1], I2) @ ket00, ket10)

    def test_associative(self, rng):
        mats = [np.array([[rng.random() + 1j * rng.random() for _ in range(2)]
                          for _ in range(2)]) for _ in range(3)]
        a, b, c = mats
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)),
                           atol=1e-12)

    def test_trace_multiplicative(self, rng):
        a = np.array([[rng.random() + 1j * rng.random() for _ in range(2)]
                      for _ in range(2)])
        b = np.array([[rng.random() + 1j * rng.random() for _ in range(2)]
                      for _ in range(2)])
        assert np.trace(tensor(a, b)) == pytest.approx(
            np.trace(a) * np.trace(b), abs=1e-12)


class TestDagger:
    def test_diagonal_conjugation(self):
        m = np.diag([1j, -1j])
        assert np.array_equal(dagger(m), np.diag([-1j, 1j]))

    @given(st.lists(complex_entries, min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, entries):
        m = random_matrix(entries)
        assert np.array_equal(dagger(dagger(m)), m)

    def test_strategy_unitarity(self):
        u = strategy_unitary(StrategyParams(1.1, 0.4, -2.0))
        assert np.allclose(dagger(u) @ u, I2, atol=1e-12)

    @given(st.lists(complex_entries, min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_gram_trace_real_nonnegative(self, entries):
        m = random_matrix(entries)
        value = np.trace(dagger(m) @ m)
        assert abs(value.imag) < 1e-10
        assert value.real >= -1e-12


class TestTrace:
    def test_identity(self):
        assert np.trace(I4) == 4

    def test_pauli_z_traceless(self):
        assert np.trace(PAULI[3]) == 0

    def test_pure_state_density(self):
        from qgmem.protocol import initial_density
        assert np.trace(initial_density(0.7)) == pytest.approx(1, abs=1e-15)


class TestEigenvalues:
    def test_diagonal_spectrum(self):
        d = [3.0, -1.0, 0.5, 2.0]
        eig = np.linalg.eigvalsh(np.diag(d).astype(complex))
        assert np.allclose(sorted(eig), sorted(d), atol=1e-12)

    def test_sum_equals_trace(self, rng):
        m = np.array([[rng.random() + 1j * rng.random() for _ in range(4)]
                      for _ in range(4)])
        h = m + dagger(m)
        assert np.linalg.eigvalsh(h).sum() == pytest.approx(
            np.trace(h).real, abs=1e-12)


class TestIsDensity:
    def test_valid_diagonal(self):
        assert is_density(np.diag([0.5, 0, 0, 0.5]).astype(complex))

    def test_invalid_diagonal(self):
        assert not is_density(np.diag([2.0, 0, 0, -1.0]).astype(complex))

    def test_non_hermitian_rejected(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 0.3j
        assert not is_density(m)

    def test_transformed_initial_state(self, rng):
        for _ in range(20):
            rho = noiseless_final_state(
                rng.uniform(0, math.pi / 2),
                StrategyParams(rng.uniform(0, math.pi)),
                StrategyParams(rng.uniform(0, math.pi),
                               rng.uniform(-math.pi, math.pi),
                               rng.uniform(-math.pi, math.pi)))
            assert is_density(rho, tol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_density(np.zeros((2, 3), dtype=complex))


def test_pauli_algebra():
    for sigma in PAULI[1:]:
        assert np.allclose(sigma @ sigma, I2)


# Each range-checked record, with an in-range value for every field.
RECORDS = [StrategyParams(1.0, 0.5, -0.5), EntanglementParams(0.3, 1.2),
           ChannelSpec(ChannelKind.DEPHASING, 0.4, 0.6)]


class TestRangeChecked:
    # A record checks each field that names a DOMAINS row however it is built:
    # by position, by keyword and through _replace.  One float step beyond
    # either end of the row is refused, the end itself is kept.
    @pytest.mark.parametrize("record,name", [
        pytest.param(r, name, id=f"{type(r).__name__}.{name}")
        for r in RECORDS for name in r._fields if name in DOMAINS])
    def test_out_of_range_refused_every_way(self, record, name):
        cls, (lo, hi, span) = type(record), DOMAINS[name]
        for end, beyond in ((lo, -np.inf), (hi, np.inf)):
            assert getattr(record._replace(**{name: end}), name) == end
            bad = record._asdict() | {name: np.nextafter(end, beyond)}
            for build in (lambda: cls(*bad.values()), lambda: cls(**bad),
                          lambda: record._replace(**{name: bad[name]})):
                with pytest.raises(ValueError, match=re.escape(f"{name} must be in {span}, ")):
                    build()

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_first_bad_field_in_field_order_is_named(self, record):
        checked = [name for name in record._fields if name in DOMAINS]
        bad = record._asdict() | {name: DOMAINS[name][1] + 1.0 for name in checked}
        with pytest.raises(ValueError, match=f"^{checked[0]} must be in "):
            type(record)(**bad)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
