"""Finite positive Borel measures on [0, 1): atoms plus a radial density.

Everything downstream consumes measures through three views: moments
mu_n = integral of t^n, tails mu([t, 1)), and weighted moments with an extra
radial factor.  One call reads a whole ladder of indices from one adaptive
node grid, so the ladder costs a single refinement study; a measure keeps no
state between calls, so its moments depend only on the arguments.

Every node carries log t, read from the gap 1 - t for density nodes, and
every power is t^n = exp(n log t) (the contiguous tables take t^j, j < B,
from a cumulative product).  The rounding of t, which t^n would multiply by
n, never enters, so a density moment at n = 2^30 is as accurate as one at
2^10, and the grid study, which starts at level 0 (panels about 2 wide in
u), settles at level 1 for every builtin density.  An atom's t is exact, so
its powers carry about |n log t| roundings instead of one.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstructionError, DomainError, NumericsError, require_number
from .quadrature import DEFAULT_REL_TOL, TAIL_CAP, integrate_radial, panel_points
from .trend import CriterionResult, summarize_ladder

# Both power tables of _contiguous_power_sums together (nodes x (B + R) floats) stay within 1 MiB.
_MOMENT_TABLE_ELEMENTS = 2**17
# _contiguous_power_sums pads its node set with zero-weight nodes to a multiple of this count, at
# which OpenBLAS's threaded and single-threaded products round alike (a multiple of 16 does not).
_NODE_PAD = 64


@dataclass(frozen=True)
class Density:
    """Radial density (1-t)^s * log^gamma_log(e/(1-t)) dt."""

    s: float
    gamma_log: float

    def eval(self, t: np.ndarray, omt: np.ndarray) -> np.ndarray:
        out = omt**self.s
        if self.gamma_log != 0.0:
            out = out * (1.0 - np.log(omt)) ** self.gamma_log
        return out

    @property
    def label(self) -> str:
        if self.gamma_log == 0.0 and self.s == 0.0:
            return "dt"
        if self.gamma_log == 0.0:
            return f"(1-t)^{self.s:g} dt"
        return f"(1-t)^{self.s:g} log^{self.gamma_log:g}(e/(1-t)) dt"


def power_log_density(s: float, gamma_log: float = 0.0) -> Density:
    return Density(float(s), float(gamma_log))


def _power_sums(nodes: tuple[np.ndarray, np.ndarray, np.ndarray], ns: Sequence[int]) -> np.ndarray:
    """Sums of w * t^n over the node set (t, w, log t), one per index n, with t^n = exp(n log t)."""
    _, w, log_t = nodes
    return np.array([float(w @ np.exp(n * log_t)) if n else float(w.sum()) for n in ns])


def _moment_block(n_max: int, nodes: int) -> tuple[int, int]:
    """Block B and row count R for _contiguous_power_sums, both powers of two: B near sqrt(n_max + 1)
    and R * B reaching n_max + 1, each capped so that its table (nodes x B or R x nodes) holds at
    most half of the 2^17-float budget."""
    half = max(1, _MOMENT_TABLE_ELEMENTS // (2 * nodes))
    cap = 1 << (half.bit_length() - 1)
    block = min(1 << (n_max.bit_length() + 1) // 2, cap)
    return block, min(1 << (-(-(n_max + 1) // block) - 1).bit_length(), cap)


def _contiguous_power_sums(t: np.ndarray, w: np.ndarray, log_t: np.ndarray, n_max: int) -> np.ndarray:
    """Sums of w * t^n over the node set (t, w, log t) for every n = 0..n_max.

    The set is padded with nodes (0, 0, -inf) to a multiple of _NODE_PAD so
    that no result depends on the BLAS thread count.  Two tables (see
    _moment_block) cover the indices: the columns P[i, j] = t_i^j, j < B,
    come from one cumulative product, and the rows T[r, i] = w_i t_i^(rB),
    r < R, from exp(rB log t_i), with row 0 the weights themselves.  Each
    chunk of R * B consecutive indices is then one matrix product T @ P,
    written row-major, after which T steps by exp(RB log t); the last chunk
    takes only the rows it needs.  The Python loop takes (n_max + 1) / (R * B)
    steps.  Only the columns raise the rounded t to a power, at most B - 1,
    so t^n carries about n / (R * B) + 2B roundings plus |n log t|, which is
    large only where t^n is negligible, and both tables together hold at
    most 2^17 floats.
    """
    if not len(t):
        return np.zeros(n_max + 1)
    pad = -len(t) % _NODE_PAD
    t, w, log_t = np.append(t, np.zeros(pad)), np.append(w, np.zeros(pad)), np.append(log_t, np.full(pad, -np.inf))
    block, rows = _moment_block(n_max, len(t))
    powers = np.empty((len(t), block))
    powers[:, 0] = 1.0
    powers[:, 1:] = t[:, None]
    np.cumprod(powers, axis=1, out=powers)
    table = np.empty((rows, len(t)))
    table[0] = w
    # Rows 1..R-1 in place, with no temporary the size of the table.
    np.multiply(np.arange(block, rows * block, block)[:, None], log_t, out=table[1:])
    np.exp(table[1:], out=table[1:])
    table[1:] *= w
    step = np.exp(rows * block * log_t)
    # Whole blocks of B moments, one per row; the tail past n_max is cut off.
    out = np.empty(-(-(n_max + 1) // block) * block)
    grid = out.reshape(-1, block)
    for first in range(0, len(grid), rows):
        chunk = grid[first : first + rows]
        np.matmul(table[: len(chunk)], powers, out=chunk)
        table *= step
    return out[: n_max + 1]


class RadialMeasure:
    """atoms + density measure; it holds only that definition, so no result depends on earlier calls.

    The density (1-t)^s log^gamma(e/(1-t)) dt has finite mass exactly when s
    and gamma are finite and s > -1, or s = -1 and gamma < -1; any other
    density raises ConstructionError.  A power density (1-t)^s dt, s > -1,
    takes its tails from the closed form (1-t)^(s+1)/(s+1); every other
    density integrates them.
    """

    def __init__(
        self,
        atoms: Sequence[tuple[float, float]] = (),
        density: Density | None = None,
        label: str | None = None,
    ):
        cleaned = []
        for t, wgt in atoms:
            t, wgt = float(t), float(wgt)
            if not 0.0 <= t < 1.0:
                raise ConstructionError(f"atom position {t} outside [0, 1)")
            if not 0.0 < wgt < math.inf:
                raise ConstructionError(f"atom weight {wgt} must be positive and finite")
            cleaned.append((t, wgt))
        if density is not None:
            s, gamma = density.s, density.gamma_log
            if not (math.isfinite(s) and math.isfinite(gamma) and (s > -1.0 or (s == -1.0 and gamma < -1.0))):
                raise ConstructionError(f"density mass diverges: {density.label} (needs s > -1, or s = -1 and gamma < -1)")
        self.atoms = tuple(sorted(cleaned))
        self.density = density
        self.label = label or self._default_label()

    # -- bookkeeping ------------------------------------------------------

    def _default_label(self) -> str:
        parts = []
        if self.atoms:
            parts.append("+".join(f"{wgt:g}*delta_{t:g}" for t, wgt in self.atoms))
        if self.density is not None:
            parts.append(self.density.label)
        return " + ".join(parts) if parts else "zero"

    def __repr__(self) -> str:
        return f"RadialMeasure<{self.label}>"

    # -- node grid ---------------------------------------------------------

    def _density_grid(self, n_top: int, phi, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weighted density nodes (t, w, log t) of a grid (U, level) on which the hardest moments are stable to rel_tol.

        phi is evaluated once on each grid tried; the probe sums and the
        tolerance floor (the l1 mass of the weighted integrand, which anchors
        the tolerance when moments cancel) all read those weights.
        """
        weighted: dict[tuple[float, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

        def nodes(U: float, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Density nodes t on u = -log(1-t) panels, weighted density * (1-t) du (times phi).

            log t = log1p(-(1-t)) comes from the gap, so it keeps its relative
            accuracy where t itself rounds near 1 and powers t^n = exp(n log t)
            do not multiply the rounding of t by n.
            """
            if (U, level) not in weighted:
                u, du = panel_points(np.array([0.0, U]), max(8, int(math.ceil(U / 2.0)) * 2**level))
                omt = np.exp(-u)
                t = -np.expm1(-u)
                base = self.density.eval(t, omt) * omt * du
                w = base if phi is None else base * np.asarray(phi(t, omt), dtype=float)
                weighted[U, level] = (t, w, np.log1p(-omt))
            return weighted[U, level]

        probe = sorted({0, int(n_top)})
        U = max(16.0, math.log(n_top + 1.0) + 8.0)
        cur = _power_sums(nodes(U, 1), probe)
        while True:
            U = U + max(8.0, 0.5 * U)
            # Checked before the grid is built: no node lies past TAIL_CAP, where (1-t) underflows.
            if U > TAIL_CAP:
                raise NumericsError("density moments did not stabilize in the tail; measure nearly divergent")
            nxt = _power_sums(nodes(U, 1), probe)
            floor = 0.0 if phi is None else 0.01 * float(np.abs(nodes(U, 1)[1]).sum())
            if np.all(np.abs(nxt - cur) <= 0.25 * rel_tol * (np.abs(nxt) + floor) + 1e-300):
                break
            cur = nxt
        level = 0
        cur = _power_sums(nodes(U, level), probe)
        while level < 10:
            level += 1
            nxt = _power_sums(nodes(U, level), probe)
            if np.all(np.abs(nxt - cur) <= rel_tol * (np.abs(nxt) + floor) + 1e-300):
                break
            cur = nxt
        else:
            raise NumericsError("density moment refinement did not converge")
        return nodes(U, level)

    # -- moments -----------------------------------------------------------

    def _moment_nodes(self, n_max: int, phi, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One weighted node set (t, w, log t) for the moments up to n_max: atoms wgt * phi(t), then density nodes.

        Deep in the tail t = -expm1(-u) rounds to 1.0, where every such node adds
        its weight to every moment; those nodes become one node (1.0, fsum of
        their w, the |w|-weighted mean of their log t), whose power keeps the
        first-order term n log t of theirs.  An atom at t = 0 has log t = -inf,
        so only n = 0 reads it.
        """
        t, w = np.array(self.atoms, dtype=float).reshape(-1, 2).T
        if phi is not None and len(t):
            w = w * np.asarray(phi(t, 1.0 - t), dtype=float)
        with np.errstate(divide="ignore"):
            log_t = np.log(t)
        if self.density is None:
            return t, w, log_t
        t_dens, w_dens, log_dens = self._density_grid(n_max, phi, rel_tol)
        at_one = t_dens == 1.0
        if at_one.any():
            mass = np.abs(w_dens[at_one])
            log_one = math.fsum(mass * log_dens[at_one]) / math.fsum(mass) if mass.any() else 0.0
            t_dens = np.append(t_dens[~at_one], 1.0)
            w_dens = np.append(w_dens[~at_one], math.fsum(w_dens[at_one]))
            log_dens = np.append(log_dens[~at_one], log_one)
        return np.concatenate([t, t_dens]), np.concatenate([w, w_dens]), np.concatenate([log_t, log_dens])

    def moments_at(self, ns: Sequence[int], phi=None, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
        """Moments (or phi-weighted moments) at the given indices."""
        ns = [int(n) for n in ns]
        if any(n < 0 for n in ns):
            raise DomainError("moment index must be nonnegative")
        return _power_sums(self._moment_nodes(max(ns, default=0), phi, rel_tol), ns)

    def contiguous_moments(self, n_max: int) -> np.ndarray:
        """Moments for every n = 0..n_max, stable to DEFAULT_REL_TOL, summed by _contiguous_power_sums on one node set."""
        n_max = int(n_max)
        if n_max < 0:
            raise DomainError("moment index must be nonnegative")
        return _contiguous_power_sums(*self._moment_nodes(n_max, None, DEFAULT_REL_TOL), n_max)

    def integral(self, fn, rel_tol: float = DEFAULT_REL_TOL, abs_floor: float = 0.0, upper: float = 1.0) -> float:
        """Integral of fn(t, 1-t) against the measure over [0, upper]; divergence raises NumericsError.

        fn takes arrays: the atoms at or below upper all in one call, in atom
        order, and the density's Gauss nodes one panel refinement per call.
        """
        if not 0.0 < upper <= 1.0:
            raise DomainError(f"upper limit must lie in (0, 1], got {upper}")
        atoms = [(t, wgt) for t, wgt in self.atoms if t <= upper]
        total = 0.0
        if atoms:
            ts = np.array([t for t, _ in atoms])
            total = sum((wgt * float(v) for (_, wgt), v in zip(atoms, fn(ts, 1.0 - ts))), 0.0)
        if self.density is not None:
            total += integrate_radial(
                lambda t, omt: np.asarray(fn(t, omt), dtype=float) * self.density.eval(t, omt),
                0.0,
                upper,
                rel_tol=rel_tol,
                abs_floor=abs_floor,
            )
        return total

    # -- tails ---------------------------------------------------------------

    def tail(self, t: float) -> float:
        """mu([t, 1))."""
        if not 0.0 <= t < 1.0:
            raise DomainError("tail argument must lie in [0, 1)")
        atom_part = sum(wgt for pos, wgt in self.atoms if pos >= t)
        if self.density is None:
            return atom_part
        if self.density.gamma_log == 0.0 and self.density.s > -1.0:
            s = self.density.s
            return atom_part + float((1.0 - t) ** (s + 1.0) / (s + 1.0))
        return atom_part + integrate_radial(self.density.eval, t, 1.0, rel_tol=1e-11)

    def tail_ladder(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Gaps 2^-m and tails mu([1 - 2^-m, 1)) for m = 1..depth; past depth 53, 1 - 2^-m rounds to 1."""
        depth = int(depth)
        if not 1 <= depth <= 53:
            raise DomainError(f"tail ladder depth must lie in [1, 53], got {depth}")
        gaps = 2.0 ** -np.arange(1, depth + 1, dtype=float)
        return gaps, np.array([self.tail(t) for t in 1.0 - gaps])


# -- constructors ---------------------------------------------------------


def lebesgue() -> RadialMeasure:
    return RadialMeasure(density=power_log_density(0.0), label="lebesgue")


def point_mass(t: float) -> RadialMeasure:
    """A unit atom at t."""
    return RadialMeasure(atoms=[(t, 1.0)])


# -- JSON / CSV interface ---------------------------------------------------

_MEASURE_KEYS = {"atoms", "density", "label"}
_DENSITY_KEYS = {"kind", "s", "gamma"}


def measure_from_json(doc: dict) -> RadialMeasure:
    if not isinstance(doc, dict):
        raise ConstructionError("measure descriptor must be an object")
    extra = set(doc) - _MEASURE_KEYS
    if extra:
        raise ConstructionError(f"unknown keys in measure descriptor: {sorted(extra)}")
    pairs = doc.get("atoms") or []
    if not isinstance(pairs, (list, tuple)) or not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ConstructionError(f"atoms must be a list of [t, weight] pairs, got {pairs!r}")
    atoms = [(require_number(t, "atom position"), require_number(wgt, "atom weight")) for t, wgt in pairs]
    if not isinstance(doc.get("label"), (str, type(None))):
        raise ConstructionError(f"measure label must be a string, got {doc['label']!r}")
    density = None
    if doc.get("density") is not None:
        d = doc["density"]
        if not isinstance(d, dict):
            raise ConstructionError(f"density descriptor must be an object, got {d!r}")
        if d.get("kind") != "power_log":
            raise ConstructionError(f"unknown density kind {d.get('kind')!r}")
        extra = set(d) - _DENSITY_KEYS
        if extra:
            raise ConstructionError(f"unknown keys in density descriptor: {sorted(extra)}")
        density = power_log_density(
            require_number(d.get("s", 0.0), "density exponent s"), require_number(d.get("gamma", 0.0), "density gamma")
        )
    return RadialMeasure(atoms, density, label=doc.get("label"))


def measure_to_json(mu: RadialMeasure) -> dict:
    doc: dict = {"atoms": [[t, wgt] for t, wgt in mu.atoms]}
    if mu.density is not None:
        doc["density"] = {"kind": "power_log", "s": mu.density.s, "gamma": mu.density.gamma_log}
    else:
        doc["density"] = None
    doc["label"] = mu.label
    return doc


def moments_to_csv(mu: RadialMeasure, n_max: int) -> str:
    """Moments n = 0..n_max as CSV text with columns n, mu_n."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "mu_n"])
    for n, v in enumerate(mu.contiguous_moments(n_max)):
        writer.writerow([n, repr(float(v))])
    return buf.getvalue()


# -- Carleson quantities -----------------------------------------------------


def carleson_sup(
    mu: RadialMeasure,
    gamma_log: float = 0.0,
    s: float = 1.0,
    depth: int = 24,
) -> CriterionResult:
    """Probe sup over t of mu([t,1)) log^gamma_log(e/(1-t)) / (1-t)^s on a dyadic ladder."""
    gaps, tails = mu.tail_ladder(depth)
    quantities = tails * (1.0 - np.log(gaps)) ** gamma_log / gaps**s
    return summarize_ladder(
        1.0 / gaps,
        quantities,
        quantity=f"tail * log^{gamma_log:g} / (1-t)^{s:g}",
        details={"depth": depth, "tails": tails.tolist()},
    )


# -- reweighting by (1-t)^{-gamma} -------------------------------------------


def power_reweight(mu: RadialMeasure, gamma: float) -> RadialMeasure:
    """Measure d tau = d mu / (1-t)^gamma; infinite mass surfaces as ConstructionError."""
    atoms = [(t, wgt / (1.0 - t) ** gamma) for t, wgt in mu.atoms]
    density = None
    if mu.density is not None:
        density = power_log_density(mu.density.s - gamma, mu.density.gamma_log)
    return RadialMeasure(atoms, density, label=f"({mu.label}) / (1-t)^{gamma:g}")


@dataclass(frozen=True)
class ReweightAgreement:
    """Comparison of the two equivalent Carleson readings of one measure."""

    original: CriterionResult
    transformed: CriterionResult
    agree: bool


def reweight_agreement(mu: RadialMeasure, beta: float, gamma: float, depth: int = 24) -> ReweightAgreement:
    """Check that mu is (beta+gamma)-Carleson exactly when d mu/(1-t)^gamma is beta-Carleson."""
    original = carleson_sup(mu, 0.0, beta + gamma, depth)
    transformed = carleson_sup(power_reweight(mu, gamma), 0.0, beta, depth)
    return ReweightAgreement(original, transformed, agree=original.verdict == transformed.verdict)
