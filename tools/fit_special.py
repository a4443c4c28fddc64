"""Regenerate the coefficient literals of the erfc/erfcx kernels in
``kappainf.special``.

The pieces have the forms of W. J. Cody, "Rational Chebyshev approximations
for the error function", Math. Comp. 23 (1969) 631-637:

    A  |x| < 1/2       erf(x)   = x * P(x^2)                  P of degree 8
    B  0 <= x < 4      erfcx(x) = P(x) / Q(x)                 degrees 8/8
    C  x >= 4          erfcx(x) = (1/sqrt(pi) + z*P(z)/Q(z)) / x,
                       z = 1/x^2                              degrees 4/5

erfc uses A below 1/2 and B from there; erfcx needs no A, since B starts
at 0, where its constant terms are made equal so that erfcx(0) is exactly 1.

Each piece is fitted in 40-digit mpmath to least maximum relative error
(of erf(x)/x, of erfcx, and of (x*erfcx(x) - 1/sqrt(pi))/z) on Chebyshev
nodes, by Lawson's iteratively reweighted linear least squares around a
Sanathanan-Koerner linearization; Q is then scaled to be monic, so its
leading coefficient costs no multiply.  The script prints the tuples, highest
degree first, ready to replace those in ``special.py``, and the worst
relative error of erf and erfcx on a fine grid of each piece once the
coefficients are rounded to doubles (exact arithmetic; the rounding of the
kernel's own operations comes on top of it).

Run from the repository root (mpmath is not a dependency of the package; it
is installed with sympy):

    python tools/fit_special.py

It takes about 20 seconds on one core (Python 3.11, mpmath 1.3).
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40

NODES = 160
ITERATIONS = 40
SQRT_PI = mp.sqrt(mp.pi)


def erfcx(x):
    return mp.exp(x * x) * mp.erfc(x)


def erf_over_x(u):
    """erf(x)/x at u = x^2."""
    return mp.erf(mp.sqrt(u)) / mp.sqrt(u) if u else 2 / SQRT_PI


def tail_ratio(z):
    """(x*erfcx(x) - 1/sqrt(pi))/z at z = 1/x^2; -1/(2 sqrt(pi)) at z = 0."""
    if not z:
        return -1 / (2 * SQRT_PI)
    x = 1 / mp.sqrt(z)
    return (x * erfcx(x) - 1 / SQRT_PI) / z


def chebyshev_nodes(a, b, n):
    return [(a + b) / 2 + (b - a) / 2 * mp.cos(mp.pi * (2 * i + 1) / (2 * n)) for i in range(n)]


def fit(f, a, b, n_num, n_den):
    """(p, q) lowest degree first, Q(0) = 1, with the least maximum relative
    error of P/Q against f over the nodes that the iterations reached."""
    ts = chebyshev_nodes(mp.mpf(a), mp.mpf(b), NODES)
    fs = [f(t) for t in ts]
    weights = [mp.mpf(1) / NODES] * NODES
    q_prev = [mp.mpf(1)] * NODES
    best = None
    for _ in range(ITERATIONS):
        rows, rhs = [], []
        for t, ft, w, qt in zip(ts, fs, weights, q_prev):
            s = mp.sqrt(w) / abs(ft * qt)
            rows.append([s * t**j for j in range(n_num + 1)]
                        + [-s * ft * t**j for j in range(1, n_den + 1)])
            rhs.append(s * ft)
        x, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        p = [x[j] for j in range(n_num + 1)]
        q = [mp.mpf(1)] + [x[n_num + j] for j in range(1, n_den + 1)]
        q_prev = [mp.polyval(q[::-1], t) for t in ts]
        errors = [abs(mp.polyval(p[::-1], t) / qt / ft - 1) for t, ft, qt in zip(ts, fs, q_prev)]
        worst = max(errors)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        total = mp.fsum(w * e for w, e in zip(weights, errors))
        weights = [w * e / total for w, e in zip(weights, errors)]
    return best[1], best[2]


def as_doubles(p, q):
    """Highest degree first, Q monic, each rounded to a double."""
    lead = q[-1]
    return [float(c / lead) for c in p[::-1]], [float(c / lead) for c in q[::-1]]


def horner(coeffs, t):
    acc = mp.mpf(0)
    for c in coeffs:
        acc = acc * t + mp.mpf(c)
    return acc


def worst_on_grid(model, exact, a, b, n=2000):
    grid = (mp.mpf(a) + (mp.mpf(b) - a) * i / n for i in range(n + 1))
    return max(abs(model(x) / exact(x) - 1) for x in grid)


def literal(name, coeffs):
    rows = (", ".join(map(repr, coeffs[i:i + 3])) for i in range(0, len(coeffs), 3))
    return f"{name} = (\n" + "".join(f"    {row},\n" for row in rows) + ")"


def main() -> None:
    p_a, _ = fit(erf_over_x, 0, 0.25, 8, 0)
    erf_a = [float(c) for c in p_a[::-1]]
    p_b, q_b = as_doubles(*fit(erfcx, 0, 4, 8, 8))
    q_b[-1] = p_b[-1]  # erfcx(0) = 1 exactly
    p_c, q_c = as_doubles(*fit(tail_ratio, 0, 1 / mp.mpf(16), 4, 5))

    errors = {
        "A erf": worst_on_grid(lambda x: x * horner(erf_a, x * x), mp.erf, 1e-3, 0.5),
        "B erfcx": worst_on_grid(lambda x: horner(p_b, x) / horner(q_b, x), erfcx, 0, 4),
        "C erfcx": worst_on_grid(
            lambda x: (mp.mpf(float(1 / SQRT_PI)) + horner(p_c, 1 / x**2) / horner(q_c, 1 / x**2) / x**2) / x,
            erfcx, 4, 400),
    }
    print("# Generated by tools/fit_special.py; worst relative error with the")
    print("# coefficients rounded to doubles, in exact arithmetic:")
    for name, err in errors.items():
        print(f"#   {name}: {mp.nstr(err, 2)}")
    for name, coeffs in [("_ERF_SMALL", erf_a), ("_ERFCX_NEAR_P", p_b), ("_ERFCX_NEAR_Q", q_b[1:]),
                         ("_ERFCX_TAIL_P", p_c), ("_ERFCX_TAIL_Q", q_c[1:])]:
        print(literal(name, coeffs))


if __name__ == "__main__":
    main()
