"""Walk through the Yau-Zaslow series q/Delta = prod (1-q^k)^(-24).

Its coefficients G_d count rational curves in primitive classes of square
2d-2 on a K3 surface.  The library computes them with a power recurrence
over the pentagonal-number terms of prod (1-q^k); here we recompute a prefix
with literal geometric-series products and compare, then look at how fast
the numbers grow.
"""

import time

from k3dw import SeriesTable, yz_coefficients


def product_prefix(order):
    # 24 geometric factors per k, nothing shared with the recurrence
    coeffs = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(24):
            for i in range(k, order + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs


def main():
    order = 24
    fast = yz_coefficients(order)
    slow = product_prefix(order)
    print(f"first {order + 1} coefficients, recurrence vs literal product:")
    for d in range(8):
        marker = "ok" if fast[d] == slow[d] else "MISMATCH"
        print(f"  G_{d} = {fast[d]}  [{marker}]")
    assert fast == slow
    print(f"  ... all {order + 1} agree\n")

    print("growth of the curve counts:")
    table = SeriesTable()
    for d in (10, 100, 1000):
        g = table.coefficient(d)
        print(f"  G_{d} has {len(str(g))} digits")

    start = time.perf_counter()
    table = SeriesTable()
    table.coefficients(5000)
    print(f"\nfresh table, G_0..G_5000: {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
