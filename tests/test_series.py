"""Yau-Zaslow coefficient table: golden values, oracle, cap, stability."""

import hashlib
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

# sha256 of ",".join(map(str, G_0..G_8192)), frozen from the earlier route,
# Miller's recurrence over the pentagonal terms of prod (1-q^k) with exponent
# -24; it pins every order the benchmark reads, past the sigma_1 oracle's 2000
DIGEST_8192 = "1f4f2781fb7062ce7b095b4fe98bb60ebdb89dc3347e13e4946cb8c4cbfabd26"


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


def test_frozen_digest_up_to_8192():
    coeffs = SeriesTable().coefficients(8192)
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == DIGEST_8192


def test_growth_in_small_steps_matches_one_call():
    # the recurrence's terms sit at the triangular numbers T_j = j(j+1)/2, so
    # step to every T_j and its neighbours: each step extends a nonempty
    # prefix, and a term enters exactly at, just before or just after a step
    triangular = [j * (j + 1) // 2 for j in range(1, 35)]
    stops = sorted({t + e for t in triangular for e in (-1, 0, 1)} | {600})
    table = SeriesTable()
    for n in stops:
        table.coefficients(n)
        assert table.order == n
    assert table.coefficients(600) == SeriesTable().coefficients(600)


def test_corrupted_prefix_names_the_first_inexact_order():
    # G_8 reads G_7 with weight 45 on this route, and 45 * 1 is not a
    # multiple of 8; only the index is matched, since the remainder shown
    # depends on the recurrence
    table = SeriesTable()
    table.coefficients(7)
    table._coeffs[7] += 1
    with pytest.raises(ConsistencyError, match=r"\bG_8$"):
        table.coefficient(8)


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
