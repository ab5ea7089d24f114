"""Panel quadrature tuned for integrands that concentrate at the right endpoint of [0, 1).

All radial integrals go through the substitution t = 1 - e^{-u}, which turns an
endpoint singularity or a t^n concentration into a smooth, exponentially
localized profile in u.  Integrands receive both t and 1-t so they can stay
accurate where 1-t underflows the spacing of floats near 1.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

DEFAULT_REL_TOL = 1e-10
# Deepest u reachable before e^{-u} leaves the normal range of doubles.
TAIL_CAP = 680.0


def panel_points(edges: np.ndarray, panels_per_segment: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for each segment split into equal panels.

    The panel starts of all segments come from one broadcast of np.linspace's
    arithmetic, lo + k * ((hi - lo) / n) with the last one set to hi.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    starts = np.arange(panels_per_segment + 1) * ((hi - lo) / panels_per_segment) + lo
    starts[:, -1] = edges[1:]
    half = 0.5 * np.diff(starts, axis=1).ravel()
    mid = starts[:, :-1].ravel() + half
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def integrate_segments(
    fn: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
    abs_floor: float = 0.0,
) -> float:
    """Integrate a vectorized callable over fixed edges, doubling panels (at most 12 times) until stable."""
    edges = sorted(set(float(e) for e in edges))
    if len(edges) < 2:
        raise ValueError("need at least two edges")
    prev = None
    for k in range(13):
        x, w = panel_points(np.asarray(edges), 2**k)
        val = float(w @ np.asarray(fn(x), dtype=float))
        if prev is not None and abs(val - prev) <= rel_tol * abs(val) + abs_floor:
            return val
        prev = val
    raise NumericsError(
        f"panel refinement did not stabilize after 12 doublings on {edges[0]:g}..{edges[-1]:g}"
    )


def integrate_tail(
    fn: Callable[[np.ndarray], np.ndarray],
    start: float,
    rel_tol: float = DEFAULT_REL_TOL,
    scale: float = 0.0,
    extrapolate: bool = False,
) -> float:
    """Integrate a decaying callable over [start, TAIL_CAP-or-convergence).

    Blocks [U, 2U] are accumulated until the last block is negligible against
    the running total (or `scale`).  With ``extrapolate=True`` a stable block
    ratio is summed as a geometric remainder at the ratios' extrapolated limit
    2*r3 - r2: exact for power-law tails, whose ratios are constant, and first
    order in the O(1/U) drift of shifted ones such as (u + c)^-p.  Blocks that
    stop shrinking deep into the tail raise NumericsError: the integral is
    treated as divergent at this resolution.
    """
    total = 0.0
    U = float(start)
    prev_block = None
    flat_streak = 0
    ratios: list[float] = []
    while U < TAIL_CAP:
        V = min(2.0 * U, TAIL_CAP)
        block = integrate_segments(fn, [U, V], rel_tol=max(rel_tol, 1e-13), abs_floor=rel_tol * max(abs(total), scale) * 0.01 + 1e-300)
        total += block
        gauge = max(abs(total), scale)
        if abs(block) <= rel_tol * gauge:
            return total
        if prev_block is not None and abs(prev_block) > 0:
            rho = block / prev_block
            ratios.append(rho)
            if rho >= 0.98:
                flat_streak += 1
            else:
                flat_streak = 0
            if flat_streak >= 3 and U >= 64.0:
                raise NumericsError(
                    f"tail blocks stopped shrinking near u={U:g}; integral diverges at this resolution"
                )
            if extrapolate and len(ratios) >= 3:
                r1, r2, r3 = ratios[-3:]
                if 0.0 < r3 < 0.95 and abs(r3 - r2) < 0.02 * r3 and abs(r2 - r1) < 0.05 * max(r2, r1):
                    rho = 2.0 * r3 - r2
                    return total + block * rho / (1.0 - rho)
        prev_block = block
        U = V
    raise NumericsError(f"tail integral did not converge by u={TAIL_CAP:g}")


def integrate_radial(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lower: float = 0.0,
    upper: float = 1.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_floor: float = 0.0,
    extrapolate: bool = False,
) -> float:
    """Integrate fn(t, 1-t) dt over [lower, upper] with the 1-t = e^{-u} substitution.

    upper = 1.0 integrates all the way to the endpoint; non-integrable mass
    there surfaces as NumericsError rather than a silent truncation.
    """
    if not 0.0 <= lower < 1.0:
        raise ValueError(f"lower must lie in [0, 1), got {lower}")
    if not lower < upper <= 1.0:
        raise ValueError(f"upper must lie in (lower, 1], got {upper}")

    def g(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        omt = np.exp(-u)
        t = -np.expm1(-u)
        return np.asarray(fn(t, omt), dtype=float) * omt

    u_lo = -np.log1p(-lower)
    if upper < 1.0:
        return integrate_segments(g, [u_lo, -np.log1p(-upper)], rel_tol=rel_tol, abs_floor=abs_floor)
    u0 = max(8.0, u_lo + 4.0)
    core = integrate_segments(g, [u_lo, u0], rel_tol=rel_tol, abs_floor=abs_floor)
    tail = integrate_tail(g, u0, rel_tol=rel_tol, scale=max(abs(core), abs_floor), extrapolate=extrapolate)
    return core + tail
