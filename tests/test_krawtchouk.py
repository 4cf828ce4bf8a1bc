import time
from fractions import Fraction

import numpy as np
import pytest

from hamming_cutoff import (
    ParameterError,
    ResourceBudgetError,
    build_table,
    class_weights,
    eigen_residual,
    float_table_supported,
    formulas_agree,
    make_scheme,
    orthogonality_exact,
    orthogonality_residual,
    phi_binomial,
    phi_hypergeometric,
    phi_row,
    radial_matrix,
    scaled_rows,
    spectrum,
)
from hamming_cutoff import krawtchouk
from hamming_cutoff.cli import main
from hamming_cutoff.krawtchouk import _binomial_sum


def test_hypergeometric_examples():
    p = make_scheme(2, 3)
    assert phi_hypergeometric(p, 1, 1) == Fraction(1, 4)
    assert phi_hypergeometric(p, 2, 2) == Fraction(1, 4)  # 1 - 3 + 9/4
    for l in range(3):
        assert phi_hypergeometric(p, 0, l) == 1


def test_binomial_examples():
    assert phi_binomial(make_scheme(2, 3), 2, 1) == Fraction(-1, 2)
    assert phi_binomial(make_scheme(3, 3), 1, 3) == Fraction(-1, 2)


def test_index_out_of_range():
    p = make_scheme(2, 3)
    with pytest.raises(ParameterError):
        phi_hypergeometric(p, 3, 0)
    with pytest.raises(ParameterError):
        phi_binomial(p, 0, -1)


def test_build_table_example():
    t = build_table(make_scheme(2, 3))
    assert t.phi == (
        (1, 1, 1),
        (1, Fraction(1, 4), Fraction(-1, 2)),
        (1, Fraction(-1, 2), Fraction(1, 4)),
    )


def test_orthogonality_sum_example():
    p = make_scheme(2, 3)
    t = build_table(p).phi
    w = class_weights(p).w
    s = sum(w[l] * t[1][l] * t[2][l] for l in range(3))
    assert s == 0  # 1*1*1 + 4*(1/4)(-1/2) + 4*(-1/2)(1/4)


def test_dual_formula_agreement_small_grid():
    for q in (2, 3, 4, 5, 6):
        for n in range(1, 13):
            assert formulas_agree(make_scheme(n, q))


def test_table_invariants_small_grid():
    for q in (2, 3, 5):
        for n in (1, 2, 5, 9):
            p = make_scheme(n, q)
            t = build_table(p).phi
            for j in range(n + 1):
                assert t[j][0] == 1
                assert t[0][j] == 1
                for l in range(n + 1):
                    assert abs(t[j][l]) <= 1
            assert orthogonality_exact(p)


def test_mean_zero_for_positive_degrees():
    for q in (2, 3, 6):
        for n in (1, 4, 9):
            p = make_scheme(n, q)
            t = build_table(p).phi
            w = class_weights(p).w
            for j in range(1, n + 1):
                assert sum(w[l] * t[j][l] for l in range(n + 1)) == 0


def test_eigenfunction_property_exact():
    # sum_l' R[l][l'] phi_j(l') == lam_j phi_j(l) for n <= 12
    for q in (2, 3, 4, 5, 6):
        for n in range(1, 13):
            p = make_scheme(n, q)
            t = build_table(p).phi
            m = radial_matrix(p)
            lam = spectrum(p).lam
            for j in range(n + 1):
                for l in range(n + 1):
                    acc = m.stay[l] * t[j][l]
                    if l > 0:
                        acc += m.down[l] * t[j][l - 1]
                    if l < n:
                        acc += m.up[l] * t[j][l + 1]
                    assert acc == lam[j] * t[j][l]


def test_float_table_matches_exact():
    for q in (2, 3, 6):
        for n in (1, 2, 3, 17, 30):
            p = make_scheme(n, q)
            ex = build_table(p, "exact").phi
            fl = build_table(p, "float").phi
            err = max(
                abs(float(ex[j][l]) - fl[j][l])
                for j in range(n + 1)
                for l in range(n + 1)
            )
            assert err < 1e-12


def test_float_orthogonality_and_eigen_residuals():
    for q in (2, 3, 6):
        for n in (40, 200):
            p = make_scheme(n, q)
            assert orthogonality_residual(p) < 1e-10
            assert eigen_residual(p) < 1e-12


def test_scaled_rows_reproduce_table():
    # the exact table is built from scaled_rows, so check both against the
    # independent hypergeometric sum
    p = make_scheme(6, 4)
    rows = scaled_rows(p)
    t = build_table(p).phi
    d = class_weights(p).w
    for j in range(7):
        for l in range(7):
            assert Fraction(rows[j][l], d[j]) == phi_hypergeometric(p, j, l)
            assert t[j][l] == phi_hypergeometric(p, j, l)


def test_scaled_rows_match_the_binomial_sum():
    for q in range(2, 8):
        for n in range(1, 41):
            expect = tuple(
                tuple(_binomial_sum(n, q, j, l) for l in range(n + 1))
                for j in range(n + 1)
            )
            assert scaled_rows(make_scheme(n, q)) == expect, (n, q)
    rows = scaled_rows(make_scheme(200, 3))
    for j in (0, 1, 2, 57, 100, 199, 200):
        assert rows[j] == tuple(_binomial_sum(200, 3, j, l) for l in range(201)), j


def test_phi_row_matches_table():
    # the float row is the table's row bit for bit, structural pins included
    for q in (2, 3, 5):
        for n in (1, 2, 3, 25, 200):
            p = make_scheme(n, q)
            fl = build_table(p, "float").phi
            for j in range(n + 1):
                assert phi_row(p, j).tobytes() == fl[j].tobytes(), (n, q, j)
    p = make_scheme(25, 3)
    exact = tuple(phi_hypergeometric(p, 11, l) for l in range(26))
    assert phi_row(p, 11, "exact") == exact


@pytest.mark.parametrize("n, q", [(3, 10 ** 10), (1, 3), (2, 2), (5, 3), (40, 4), (200, 3)])
def test_float_row_1_is_the_correctly_rounded_exact_row(n, q):
    # phi_1(l) = phi_l(1) = lam_l; at (3, 10**10) the old pin 1 - lq/(n(q-1))
    # printed phi_1(3) = -1.000000082740371e-10 against -1.0000000001e-10
    p = make_scheme(n, q)
    fl = build_table(p, "float").phi
    assert fl[1].tolist() == [float(v) for v in phi_row(p, 1, "exact")]
    assert fl[1].tobytes() == np.ascontiguousarray(fl[:, 1]).tobytes()


def test_phi_row_unknown_backend():
    with pytest.raises(ParameterError, match="unknown backend 'bogus'"):
        phi_row(make_scheme(5, 3), 1, "bogus")


def _hypergeometric_series(n, q, j, l):
    """The terminating series term by term in Fractions."""
    term = Fraction(1)
    total = Fraction(1)
    for r in range(min(j, l)):
        # term_{r+1} / term_r = (-j+r)(-l+r) q / ((-n+r)(r+1)(q-1))
        term *= Fraction(-(j - r) * (l - r) * q, (n - r) * (r + 1) * (q - 1))
        total += term
    return total


def test_integer_hypergeometric_sum_equals_the_fraction_series():
    for q in range(2, 7):
        for n in range(1, 16):
            p = make_scheme(n, q)
            for j in range(n + 1):
                for l in range(n + 1):
                    assert phi_hypergeometric(p, j, l) == _hypergeometric_series(n, q, j, l)


def test_float_rows_at_n_le_2_are_the_exact_rows():
    for q in range(2, 9):
        for n in (1, 2):
            p = make_scheme(n, q)
            ex = build_table(p, "exact").phi
            fl = build_table(p, "float").phi
            assert fl.tolist() == [[float(v) for v in row] for row in ex]
            assert orthogonality_residual(p) < 1e-10
            assert eigen_residual(p) < 1e-12


def test_table_budget():
    with pytest.raises(ResourceBudgetError):
        build_table(make_scheme(5000, 3), "exact")
    assert not float_table_supported(make_scheme(2000, 6))
    with pytest.raises(ResourceBudgetError):
        build_table(make_scheme(2000, 6), "float")


def test_float_table_out_of_range_is_refused_before_any_array(monkeypatch):
    # at n = 100000, q = 3 the log-scale array alone would take 74.5 GiB
    def build(params):
        raise LookupError("past the gate")

    monkeypatch.setattr(krawtchouk, "log_class_weights", build)
    with pytest.raises(ResourceBudgetError, match="float table out of range"):
        build_table(make_scheme(100000, 3), "float")
    with pytest.raises(ResourceBudgetError, match="float table out of range"):
        phi_row(make_scheme(100000, 3), 1, "float")
    with pytest.raises(LookupError):  # n <= 2 is served at any q
        build_table(make_scheme(2, 10 ** 400), "float")


@pytest.mark.parametrize("n, q", [(4096, 3), (1000, 1000000)])
def test_exact_table_past_the_bit_budget_exits_3_before_any_row(n, q, capsys):
    t0 = time.perf_counter()
    assert main(["table", "--n", str(n), "--q", str(q)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "resource cap" in capsys.readouterr().err


def test_exact_table_bit_budget_admits_n_800_at_q_3(monkeypatch):
    # the full n = 800 table takes seconds and ~0.25 GB; only the gate in
    # `scaled_rows` runs here: past it, the build starts at the weights
    def build(params):
        raise LookupError("past the gate")

    monkeypatch.setattr(krawtchouk, "class_weights", build)
    for n in (800, 857):
        with pytest.raises(LookupError):
            build_table(make_scheme(n, 3), "exact")
    for n in (858, 1000):
        with pytest.raises(ResourceBudgetError):
            build_table(make_scheme(n, 3), "exact")
