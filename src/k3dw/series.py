"""Coefficients of the Yau-Zaslow series q/Delta(q) = prod (1-q^k)^(-24).

Writing q/Delta(q) = sum_{d>=0} G_d q^d, the integer G_d counts rational
curves in a d-dependent class on a K3 surface.  The first values are

    G_0..G_5 = 1, 24, 324, 3200, 25650, 176256.

Coefficients are computed by J. C. P. Miller's power recurrence (Knuth,
TAOCP vol. 2, 4.7) for h = F^(-8), where F = prod (1-q^k)^3 = sum a_k q^k
is Jacobi's cube:

    m * G_m = sum_{k=1}^{m} (-7k - m) * a_k * G_{m-k}.

By Jacobi's identity a_k is (-1)^j (2j+1) at the triangular k = j(j+1)/2
and zero elsewhere, so each G_m costs about sqrt(2m) big-int products.
This is exact integer arithmetic throughout.  Independent routes (the
literal 24-fold product, and the sigma_1 convolution in the tests) live in
the check suites and the tests.

A cap guards against runaway orders: requests beyond it raise SeriesCapError.
The default cap is 100000 and can be overridden per table or through the
K3DW_SERIES_CAP environment variable.  Growing a fresh table to the default
cap took 19-20 s of CPU and 68 MB peak RSS (Python 3.11.7, 2-CPU x86-64
host); G_100000 has 1692 digits.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction

from .errors import ConsistencyError, SeriesCapError, ValidationError

DEFAULT_CAP = 100_000
CAP_ENV_VAR = "K3DW_SERIES_CAP"


class SeriesTable:
    """Memoized coefficients G_0, G_1, ... of the Yau-Zaslow series.

    Extending the table never changes previously computed entries, and
    lookups past the cap fail instead of silently grinding.
    """

    def __init__(self, cap: int | None = None):
        if cap is not None and cap < 0:
            raise ValidationError(f"series cap must be nonnegative, got {cap}")
        self.cap = cap
        self._coeffs: list[int] = [1]
        self._lock = threading.Lock()

    @property
    def order(self) -> int:
        """Largest order computed so far."""
        return len(self._coeffs) - 1

    def effective_cap(self) -> int:
        if self.cap is not None:
            return self.cap
        raw = os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_CAP
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(
                f"{CAP_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        if value < 0:
            raise ValidationError(f"{CAP_ENV_VAR} must be nonnegative, got {value}")
        return value

    def _extend(self, n: int) -> None:
        cap = self.effective_cap()
        if n > cap:
            raise SeriesCapError(
                f"order {n} exceeds the series cap {cap}; raise the cap "
                f"explicitly or via {CAP_ENV_VAR} if this is intentional"
            )
        with self._lock:
            g = self._coeffs
            if n < len(g):
                return
            terms = []  # (k, -7k * a_k, a_k) for every nonzero a_k up to q^n, by k
            j = 1
            while (k := j * (j + 1) // 2) <= n:
                a = (-1) ** j * (2 * j + 1)
                terms.append((k, -7 * k * a, a))
                j += 1
            for m in range(len(g), n + 1):
                total = 0  # m * G_m = sum_k (-7k - m) * a_k * G_{m-k}
                for k, b, a in terms:
                    if k > m:
                        break
                    total += (b - m * a) * g[m - k]
                coeff, rem = divmod(total, m)
                if rem:
                    raise ConsistencyError(
                        f"power recurrence left remainder {rem} at G_{m}"
                    )
                g.append(coeff)

    def _reserve(self, indices: list[int]) -> None:
        """Grow the table once to max(indices), or raise SeriesCapError before
        any growth for the first index past max(cap, order): the index and text
        that looking the indices up one by one would raise with."""
        top = max(indices, default=0)
        if top > self.order:
            limit = max(self.effective_cap(), self.order)
            self._extend(next((n for n in indices if n > limit), top))

    def coefficient(self, d) -> int:
        """G_d for integer d >= 0; zero for negative or non-integer d.

        Accepts ints and Fractions, for callers that write the index as it
        stands in the multiple-cover formula, square/(2*d^2) + 1: a
        non-integer index names no class, so its term is zero.  The package's
        own sums pass ints.
        """
        if type(d) is not int and isinstance(d, Fraction):  # ints skip the ABC check
            if d.denominator != 1:
                return 0
            d = int(d)
        elif not isinstance(d, int):
            raise ValidationError(
                f"series index must be an int or Fraction, got {type(d).__name__}"
            )
        if d < 0:
            return 0
        if d >= len(self._coeffs):
            self._extend(d)
        return self._coeffs[d]

    def coefficients(self, n: int) -> list[int]:
        """The list [G_0, ..., G_n]."""
        if n < 0:
            raise ValidationError(f"series order must be nonnegative, got {n}")
        if n >= len(self._coeffs):
            self._extend(n)
        return self._coeffs[: n + 1]


_default_table = SeriesTable()


def default_table() -> SeriesTable:
    """The process-wide shared coefficient table."""
    return _default_table


def yz_coefficient(d, *, table: SeriesTable | None = None) -> int:
    """G_d from the shared table (or a caller-supplied one)."""
    return (table or _default_table).coefficient(d)


def yz_coefficients(n: int, *, table: SeriesTable | None = None) -> list[int]:
    """[G_0, ..., G_n] from the shared table (or a caller-supplied one)."""
    return (table or _default_table).coefficients(n)
