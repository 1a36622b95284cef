"""Yau-Zaslow coefficient table: golden values, oracle, cap, stability."""

from fractions import Fraction

import pytest

from k3dw import (
    ConsistencyError, SeriesCapError, SeriesTable, ValidationError, yz_coefficient,
    yz_coefficients,
)
from k3dw.series import CAP_ENV_VAR

from _oracles import yz_by_product, yz_by_sigma

GOLDEN_PREFIX = [1, 24, 324, 3200, 25650, 176256]

# frozen output of yz_by_product, the independent slow route
ORACLE_G10 = 639249300
ORACLE_G20 = 216108718571250
ORACLE_G30 = 6668597583531616856


def test_golden_prefix():
    assert yz_coefficients(5) == GOLDEN_PREFIX


def test_frozen_oracle_values():
    assert yz_coefficient(10) == ORACLE_G10
    assert yz_coefficient(20) == ORACLE_G20
    assert yz_coefficient(30) == ORACLE_G30


def test_matches_product_oracle():
    assert yz_coefficients(30) == yz_by_product(30)


def test_matches_sigma_convolution():
    assert SeriesTable().coefficients(2000) == yz_by_sigma(2000)


def test_inexact_division_raises_consistency_error():
    # a corrupted G_1 = 25 makes 2 * G_2 = 673, which is odd; the check must
    # be an exception, not an assert, so that it survives python -O
    table = SeriesTable()
    table._coeffs.append(25)
    with pytest.raises(ConsistencyError):
        table.coefficient(2)


def test_index_conventions():
    assert yz_coefficient(0) == 1
    assert yz_coefficient(-1) == 0
    assert yz_coefficient(-100) == 0
    assert yz_coefficient(Fraction(3, 2)) == 0
    assert yz_coefficient(Fraction(-1, 2)) == 0
    assert yz_coefficient(Fraction(4, 2)) == 324
    with pytest.raises(ValidationError):
        yz_coefficient(1.5)


def test_prefix_stability():
    table = SeriesTable()
    first = list(table.coefficients(12))
    table.coefficients(40)
    assert table.coefficients(12) == first
    assert table.order >= 40


def test_positivity():
    assert all(v > 0 for v in yz_coefficients(200))


def test_negative_order_rejected():
    with pytest.raises(ValidationError):
        yz_coefficients(-1)


def test_cap_enforced():
    table = SeriesTable(cap=10)
    assert table.coefficient(10) > 0
    with pytest.raises(SeriesCapError):
        table.coefficient(11)
    with pytest.raises(ValidationError):
        SeriesTable(cap=-3)


def test_env_cap(monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "7")
    table = SeriesTable()
    assert table.coefficients(7)
    with pytest.raises(SeriesCapError):
        table.coefficient(8)
    monkeypatch.setenv(CAP_ENV_VAR, "not-a-number")
    with pytest.raises(ValidationError):
        SeriesTable().coefficient(3)


def test_explicit_cap_wins_over_env(monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "2")
    table = SeriesTable(cap=50)
    assert len(table.coefficients(50)) == 51


def test_a_bool_index_reads_as_an_int():
    # ints skip the Fraction check; a bool still takes the int path
    assert yz_coefficient(True) == 24
    assert yz_coefficient(False) == 1
