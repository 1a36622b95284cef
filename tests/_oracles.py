"""Slow reference implementations used only by the tests.

Everything here is written straight from the defining formulas with
different algorithms from the package (polynomial products and the sigma_1
convolution instead of the power recurrence over Jacobi's cube, trial
division, literal window scans, Sylvester minors instead of congruence
diagonalization), so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def yz_by_product(order):
    """Coefficients of prod_k (1-q^k)^(-24) by literal polynomial products."""
    result = [1] + [0] * order
    for k in range(1, order + 1):
        geometric = [1 if i % k == 0 else 0 for i in range(order + 1)]
        for _ in range(24):
            result = poly_mul(result, geometric, order)
    return result


def yz_by_sigma(order):
    """Coefficients of prod_k (1-q^k)^(-24) by the sigma_1 convolution.

    q d/dq log of the product is 24 sum sigma_1(n) q^n, which gives
    n G_n = 24 sum_{j=1}^{n} sigma_1(j) G_{n-j}.
    """
    sigma = [0] * (order + 1)
    for k in range(1, order + 1):
        for m in range(k, order + 1, k):
            sigma[m] += k
    g = [1]
    for n in range(1, order + 1):
        total = 24 * sum(sigma[j] * g[n - j] for j in range(1, n + 1))
        g.append(total // n)
    return g


def divisor_list(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def closed_oracle(beta_square, m, g_table):
    """Divisor sum over d | m of d^-3 G_{beta_square/(2 d^2) + 1}."""
    total = Fraction(0)
    for d in divisor_list(m):
        step = 2 * d * d
        if beta_square % step == 0:
            idx = beta_square // step + 1
            if 0 <= idx < len(g_table):
                total += Fraction(g_table[idx], d**3)
            elif idx >= len(g_table):
                raise IndexError("oracle G table too short")
    return total


def gauss_det(rows):
    """Determinant by plain fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def leading_minors_positive(rows):
    """Sylvester test: all leading principal minors positive."""
    n = len(rows)
    return all(
        gauss_det([row[: k + 1] for row in rows[: k + 1]]) > 0 for k in range(n)
    )


def brute_force_liftings(gamma, window=200):
    """Literal scan of rep + k*L over |k| <= window with the validity bound."""
    from k3dw.lattice import content, square

    rep = gamma.representative
    L = gamma.boundary.L
    out = []
    for k in range(-window, window + 1):
        v = rep + k * L
        c = content(v)
        if c and square(v) >= -2 * c * c:
            out.append((k, v))
    return out
