"""Reference values computed apart from hilbloch.

Nothing here imports the program.  Measures and weights are restated from
their definitions (the catalog names are documented closed forms), and the
values come from mpmath at 30 digits, from exact recurrences in extended
precision, or from FFTs fine enough to resolve the polynomial being sampled.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

# -- definitions restated -------------------------------------------------------

# Builtin measures: (1-t)^s dt densities, the log-damped density, atom lists.
BETA_DENSITIES = {"lebesgue": 0.0, "density_1": 1.0, "density_2": 2.0, "density_-0.5": -0.5}
ATOMS = {
    "atom_half": [(mp.mpf("0.5"), mp.mpf(1))],
    "atom_ladder_16": [(1 - mp.mpf(2) ** -s, mp.mpf(2) ** -s) for s in range(1, 17)],
}
LOG_DENSITY = "density_1_log-1"  # (1-t) / log(e/(1-t)) dt

# Builtin power weights nu(r) = (1-r^2)^gamma, and power_log(1, 1) = x log(e/x), x = 1-r^2.
POWER_GAMMA = {"power_0.5": 0.5, "power_1": 1.0, "power_2": 2.0}


def weight_from_gap(name: str, gap: np.ndarray) -> np.ndarray:
    """nu(1 - gap) for the four norm weights, from x = 1 - r^2 = gap (2 - gap)."""
    x = gap * (2.0 - gap)
    if name in POWER_GAMMA:
        return x ** POWER_GAMMA[name]
    if name == "power_log_1_1":
        return x * (1.0 - np.log(x))
    raise KeyError(name)


# -- moments ---------------------------------------------------------------------


def moment(measure: str, n: int):
    """mu_n of a builtin measure at 30 digits."""
    if measure in BETA_DENSITIES:
        return mp.beta(n + 1, BETA_DENSITIES[measure] + 1)
    if measure in ATOMS:
        return mp.fsum(w * t**n for t, w in ATOMS[measure])
    if measure == LOG_DENSITY:
        # u = -log(1-t): integrand (1-e^-u)^n e^-2u / (1+u), peaked near u = log n.
        peak = mp.log(n + 1)
        f = lambda u: mp.exp(n * mp.log1p(-mp.exp(-u)) - 2 * u) / (1 + u) if u > 0 else (mp.mpf(1) if n == 0 else mp.mpf(0))
        cuts = sorted({mp.mpf(0), *(max(mp.mpf(0), peak + d) for d in (-6, -2, 0, 2, 6, 20))})
        return mp.quad(f, [*cuts, mp.inf])
    raise KeyError(measure)


def beta_moment_table(s: float, n_max: int) -> np.ndarray:
    """mu_0..mu_n_max of (1-t)^s dt by the ratio mu_n / mu_{n-1} = n / (n+s+1), in long double."""
    n = np.arange(1, n_max + 1, dtype=np.longdouble)
    table = np.empty(n_max + 1, dtype=np.longdouble)
    table[0] = np.longdouble(1) / (np.longdouble(s) + 1)
    table[1:] = table[0] * np.cumprod(n / (n + np.longdouble(s) + 1))
    return table.astype(float)


def coefficient_image(measure: str, coefficients: np.ndarray, n_out: int) -> np.ndarray:
    """b_n = sum_k a_k mu_{n+k}, n = 0..n_out, for a (1-t)^s density and alpha = 0."""
    mu = beta_moment_table(BETA_DENSITIES[measure], n_out + len(coefficients) - 1)
    return np.correlate(mu, coefficients, mode="valid")[: n_out + 1]


# -- direct norms of short polynomials under power weights ------------------------


def power_norm(function: str, gamma: float):
    """|f(0)| + sup_r (1-r^2)^gamma |f'(r)| for constant, affine, monomial_8, monomial_64."""
    if function == "constant":
        return mp.mpf(1)
    if function == "affine":
        return mp.mpf(2)  # f(0) = 1, f' = 1, maximum of nu at r = 0
    m = {"monomial_8": 8, "monomial_64": 64}[function]
    g = mp.mpf(gamma)
    s = mp.mpf(m - 1) / (m - 1 + 2 * g)  # r^2 at the maximum
    return m * s ** (mp.mpf(m - 1) / 2) * (1 - s) ** g


# -- signed polynomials --------------------------------------------------------------


def signed_bounds(coefficients: np.ndarray, weight: str, radial_depth: int) -> tuple[float, float]:
    """Bracket for the direct norm of a signed polynomial under one of the norm weights.

    The lower bound samples nu(r) |f'| on the direct estimator's rung radii,
    each with an FFT of at least 8 points per degree.  The upper bound is
    |a_0| + sup nu(r) sum k |a_k| r^(k-1) over the radii the estimator can
    reach (up to 1 - 2^-(depth+1)); on each cell of a fine grid it uses nu at
    the left end and the increasing sum at the right end.
    """
    a = np.asarray(coefficients, dtype=float)
    k = np.arange(1, len(a))
    deriv = k * a[1:]
    samples = 1 << int(math.ceil(math.log2(8 * max(len(deriv), 1))))
    gaps = 2.0 ** -np.arange(1, radial_depth + 1, dtype=float)
    lower = abs(a[0]) + abs(deriv[0])  # rung r = 0: nu = 1, |f'(0)| = |a_1|
    for gap in gaps:
        r = 1.0 - gap
        scaled = deriv * np.exp(np.arange(len(deriv)) * math.log(r))
        peak = float(np.max(np.abs(np.fft.fft(scaled, samples))))
        lower = max(lower, abs(a[0]) + float(weight_from_gap(weight, np.asarray(gap))) * peak)

    grid_gaps = 2.0 ** -np.linspace(0.0, radial_depth + 1.0, 4097)  # gap 1 (r = 0) down to 2^-(depth+1)
    nu_left = weight_from_gap(weight, grid_gaps[:-1])
    powers = np.arange(len(deriv))
    upper = 0.0
    for start in range(1, len(grid_gaps), 32):
        right = 1.0 - grid_gaps[start : start + 32]
        sums = np.exp(np.log(right)[:, None] * powers[None, :]) @ np.abs(deriv)
        upper = max(upper, float(np.max(nu_left[start - 1 : start - 1 + len(right)] * sums)))
    return lower, abs(a[0]) + upper


# -- suite-level quantities -----------------------------------------------------------


def plain_moment_sup(n: int):
    """T4.3's plain-moment sup for dt, omega = (1-r^2)^(1/2), nu = (1-r^2): (2n-1)/(n+1)."""
    return mp.mpf(2 * n - 1) / (n + 1)


def gauge_integral(measure: str, weight: str):
    """Integral of (gauge(t) + 1) d mu with gauge = integral_0^t ds / nu(s), nu = (1-s^2)^gamma."""
    gamma = POWER_GAMMA[weight]
    if gamma == 1.0:
        gauge = lambda t: mp.atanh(t)  # noqa: E731
    elif gamma == 2.0:
        gauge = lambda t: t / (2 * (1 - t * t)) + mp.atanh(t) / 2  # noqa: E731
    else:
        raise KeyError(weight)
    if measure == "atom_half":
        return gauge(mp.mpf("0.5")) + 1
    s = BETA_DENSITIES[measure]
    return mp.quad(lambda t: (1 - t) ** s * (gauge(t) + 1), [0, mp.mpf("0.5"), 1])


def dyadic_ladder_sup(weight: str, depth: int):
    """max over r = 1 - 2^-m, m = 1..depth, of nu(r) sum_{j>=1} r^(2^j) / nu(1 - 2^-j)."""

    def nu_gap(gap):
        x = gap * (2 - gap)
        if weight in POWER_GAMMA:
            return x ** mp.mpf(POWER_GAMMA[weight])
        return x * (1 - mp.log(x))

    best = mp.mpf(0)
    for m in range(1, depth + 1):
        gap = mp.mpf(2) ** -m
        log_r = mp.log1p(-gap)
        total, j = mp.mpf(0), 1
        while True:
            term = mp.exp(mp.mpf(2) ** j * log_r) / nu_gap(mp.mpf(2) ** -j)
            total += term
            if term < mp.mpf(10) ** -25 * total:
                break
            j += 1
        best = max(best, nu_gap(gap) * total)
    return best


def small_beta_carleson_sup(sigma: float, s: float, depth: int):
    """sup over gaps 2^-m of mu([1-g, 1)) / g^s for (1-t)^sigma dt, whose tail is g^(sigma+1)/(sigma+1)."""
    sig = mp.mpf(sigma)
    return max((mp.mpf(2) ** -m) ** (sig + 1 - s) / (sig + 1) for m in range(1, depth + 1))
