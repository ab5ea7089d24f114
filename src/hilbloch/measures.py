"""Finite positive Borel measures on [0, 1): atoms plus a radial density.

Everything downstream consumes measures through three views: moments
mu_n = integral of t^n, tails mu([t, 1)), and weighted moments with an extra
radial factor.  Moments share one adaptive node grid per measure so that a
whole ladder of indices costs a single refinement study.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, NumericsError, require_number
from .quadrature import TAIL_CAP, integrate_radial, panel_points
from .trend import CriterionResult, summarize_ladder

# Largest power table t_i^j (nodes x block) that contiguous_moments builds: 1 MiB of floats.
_MOMENT_TABLE_ELEMENTS = 2**17


@dataclass(frozen=True)
class Density:
    """Radial density p(t) dt; the catalog kind is (1-t)^s * log^gamma_log(e/(1-t))."""

    kind: str  # "power_log" or "custom"
    s: float = 0.0
    gamma_log: float = 0.0
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def eval(self, t: np.ndarray, omt: np.ndarray) -> np.ndarray:
        if self.kind == "power_log":
            out = omt**self.s
            if self.gamma_log != 0.0:
                out = out * (1.0 - np.log(omt)) ** self.gamma_log
            return out
        return np.asarray(self.fn(t, omt), dtype=float)

    @property
    def label(self) -> str:
        if self.kind == "power_log":
            if self.gamma_log == 0.0 and self.s == 0.0:
                return "dt"
            if self.gamma_log == 0.0:
                return f"(1-t)^{self.s:g} dt"
            return f"(1-t)^{self.s:g} log^{self.gamma_log:g}(e/(1-t)) dt"
        return "custom dt"


def power_log_density(s: float, gamma_log: float = 0.0) -> Density:
    return Density("power_log", float(s), float(gamma_log))


def custom_density(fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Density:
    """Density from a vectorized callable fn(t, 1-t); integrability is checked at build time."""
    return Density("custom", fn=fn)


def _u_edges(breakpoints: Sequence[float]) -> tuple[float, ...]:
    """Map radii in (0, 1) to panel cuts on the u = -log(1-t) axis."""
    return tuple(sorted({-math.log1p(-float(b)) for b in breakpoints if 0.0 < b < 1.0}))


def _power_sums(t: np.ndarray, w: np.ndarray, ns: Sequence[int]) -> np.ndarray:
    """Sums of w * t^n over the node set, one per index n."""
    return np.array([float(w @ np.power(t, n)) if n else float(w.sum()) for n in ns])


def _moment_block(n_max: int, nodes: int) -> int:
    """Block of indices for contiguous_moments: a power of two near sqrt(n_max + 1),
    capped so that the nodes x block power table stays within 2^17 floats (1 MiB)."""
    block = min(1 << (n_max.bit_length() + 1) // 2, max(1, _MOMENT_TABLE_ELEMENTS // nodes))
    return 1 << (block.bit_length() - 1)


class RadialMeasure:
    """atoms + density measure with cached moments and node grids.

    A power density (1-t)^s dt, s > -1, takes its tails from the closed form
    (1-t)^(s+1)/(s+1); every other density integrates them.
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
        self.atoms = tuple(sorted(cleaned))
        self.density = density
        self.label = label or self._default_label()
        self._moment_cache: dict[int, float] = {}
        self._node_cache: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._grid_spec: tuple[float, int] | None = None

        self.tail_fn: Callable[[float], float] | None = None
        if density is not None and density.kind == "power_log" and density.gamma_log == 0.0 and density.s > -1.0:
            s = density.s
            self.tail_fn = lambda t: (1.0 - t) ** (s + 1.0) / (s + 1.0)

        density_mass = 0.0
        if density is not None:
            try:
                density_mass = integrate_radial(density.eval, 0.0, 1.0, rel_tol=1e-10)
            except NumericsError as exc:
                raise ConstructionError(f"density mass diverges: {exc}") from exc
            if not density_mass >= 0.0:
                raise ConstructionError(f"density must be nonnegative, got mass {density_mass}")
        self.mass = density_mass + sum(wgt for _, wgt in self.atoms)

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

    def _nodes(self, U: float, level: int, edges: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Density nodes t, 1 - t and their quadrature weights density * (1-t) du."""
        key = (U, level, edges)
        found = self._node_cache.get(key)
        if found is not None:
            return found
        cuts = np.array([0.0, *(e for e in edges if 0.0 < e < U), U])
        panels = max(8, int(math.ceil(U / 2.0)) * 2**level)
        u, du = panel_points(cuts, panels)
        omt = np.exp(-u)
        t = -np.expm1(-u)
        nodes = (t, omt, self.density.eval(t, omt) * omt * du)
        self._node_cache[key] = nodes
        return nodes

    def _density_grid(self, n_top: int, phi, rel_tol: float, edges=()) -> tuple[np.ndarray, np.ndarray]:
        """Weighted density nodes (t, w) of a grid (U, level) on which the hardest moments are stable to rel_tol.

        phi is evaluated once on each grid tried; the probe sums and the
        tolerance floor (the l1 mass of the weighted integrand, which anchors
        the tolerance when moments cancel) all read those weights.
        """
        weighted: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

        def nodes(U: float, level: int) -> tuple[np.ndarray, np.ndarray]:
            if (U, level) not in weighted:
                t, omt, base = self._nodes(U, level, edges)
                w = base if phi is None else base * np.asarray(phi(t, omt), dtype=float)
                weighted[U, level] = (t, w)
            return weighted[U, level]

        if self._grid_spec is not None and phi is None and not edges:
            U, level = self._grid_spec
            if U >= math.log(n_top + 1.0) + 8.0:
                return nodes(U, level)
        probe = sorted({0, int(n_top)})
        U = max(16.0, math.log(n_top + 1.0) + 8.0)
        cur = _power_sums(*nodes(U, 1), probe)
        while True:
            U = U + max(8.0, 0.5 * U)
            nxt = _power_sums(*nodes(U, 1), probe)
            floor = 0.0 if phi is None else 0.01 * float(np.abs(nodes(U, 1)[1]).sum())
            if np.all(np.abs(nxt - cur) <= 0.25 * rel_tol * (np.abs(nxt) + floor) + 1e-300):
                break
            if U > TAIL_CAP:
                raise NumericsError("density moments did not stabilize in the tail; measure nearly divergent")
            cur = nxt
        level = 1
        cur = _power_sums(*nodes(U, level), probe)
        while level < 10:
            level += 1
            nxt = _power_sums(*nodes(U, level), probe)
            if np.all(np.abs(nxt - cur) <= rel_tol * (np.abs(nxt) + floor) + 1e-300):
                break
            cur = nxt
        else:
            raise NumericsError("density moment refinement did not converge")
        if phi is None and not edges:
            self._grid_spec = (U, level)
        return nodes(U, level)

    # -- moments -----------------------------------------------------------

    def _moment_nodes(self, n_max: int, phi, rel_tol: float, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
        """One weighted node set (t, w) for the moments up to n_max: atoms wgt * phi(t), then density nodes."""
        t, w = np.array(self.atoms, dtype=float).reshape(-1, 2).T
        if phi is not None and len(t):
            w = w * np.asarray(phi(t, 1.0 - t), dtype=float)
        if self.density is None:
            return t, w
        t_dens, w_dens = self._density_grid(n_max, phi, rel_tol, _u_edges(breakpoints))
        return np.concatenate([t, t_dens]), np.concatenate([w, w_dens])

    def moments_at(
        self, ns: Sequence[int], phi=None, rel_tol: float = 1e-10, breakpoints: Sequence[float] = ()
    ) -> np.ndarray:
        """Moments (or phi-weighted moments) at the given indices.

        breakpoints lists radii in (0, 1) where phi has kinks; panel edges are
        pinned there so the composite rule keeps its convergence rate.
        """
        ns = [int(n) for n in ns]
        if any(n < 0 for n in ns):
            raise DomainError("moment index must be nonnegative")
        return _power_sums(*self._moment_nodes(max(ns, default=0), phi, rel_tol, breakpoints), ns)

    def moment(self, n: int, rel_tol: float = 1e-10) -> float:
        n = int(n)
        cached = self._moment_cache.get(n)
        if cached is not None:
            return cached
        val = float(self.moments_at([n], rel_tol=rel_tol)[0])
        self._moment_cache[n] = val
        return val

    def contiguous_moments(
        self, n_max: int, phi=None, rel_tol: float = 1e-10, breakpoints: Sequence[float] = ()
    ) -> np.ndarray:
        """Moments for every n = 0..n_max, sharing one node grid.

        The atoms, weighted wgt * phi(t), and the density nodes, weighted
        base * phi(t), form one node set (t, w).  Indices run in blocks of B
        (see _moment_block): the table P[i, j] = t_i^j, j < B, comes from one
        cumulative product, each block of moments is one matrix product
        (w t^n0) @ P, and the running weights then step by t^B.  The Python
        loop takes (n_max + 1) / B steps, and P holds at most 2^17 floats.
        """
        n_max = int(n_max)
        if n_max < 0:
            raise DomainError("moment index must be nonnegative")
        t, w = self._moment_nodes(n_max, phi, rel_tol, breakpoints)
        out = np.zeros(n_max + 1)
        if not len(t):
            return out
        block = _moment_block(n_max, len(t))
        powers = np.empty((len(t), block))
        powers[:, 0] = 1.0
        powers[:, 1:] = t[:, None]
        np.cumprod(powers, axis=1, out=powers)
        # t^B by one power, not from the table, so t^n carries about n/B + B roundings instead of n.
        step = t**block
        acc = w.copy()
        for start in range(0, n_max + 1, block):
            out[start : start + block] = acc @ powers[:, : n_max + 1 - start]
            acc *= step
        return out

    def integral(
        self,
        fn,
        rel_tol: float = 1e-10,
        breakpoints: Sequence[float] = (),
        abs_floor: float = 0.0,
        upper: float = 1.0,
    ) -> float:
        """Integral of fn(t, 1-t) against the measure over [0, upper]; divergence raises NumericsError."""
        if not 0.0 < upper <= 1.0:
            raise DomainError(f"upper limit must lie in (0, 1], got {upper}")
        atoms = [(t, wgt) for t, wgt in self.atoms if t <= upper]
        total = sum(wgt * float(fn(np.asarray([t]), np.asarray([1.0 - t]))[0]) for t, wgt in atoms)
        if self.density is not None:
            total += integrate_radial(
                lambda t, omt: np.asarray(fn(t, omt), dtype=float) * self.density.eval(t, omt),
                0.0,
                upper,
                rel_tol=rel_tol,
                breakpoints=breakpoints,
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
        if self.tail_fn is not None:
            return atom_part + float(self.tail_fn(t))
        return atom_part + integrate_radial(self.density.eval, t, 1.0, rel_tol=1e-11)

    def tail_ladder(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Gaps 2^-m and tails mu([1 - 2^-m, 1)) for m = 1..depth."""
        depth = int(depth)
        if depth < 1:
            raise DomainError("tail ladder depth must be at least 1")
        gaps = 2.0 ** -np.arange(1, depth + 1, dtype=float)
        return gaps, np.array([self.tail(t) for t in 1.0 - gaps])


# -- constructors ---------------------------------------------------------


def radial_measure(
    atoms: Sequence[tuple[float, float]] = (),
    density: Density | None = None,
    label: str | None = None,
) -> RadialMeasure:
    return RadialMeasure(atoms, density, label)


def lebesgue() -> RadialMeasure:
    return RadialMeasure(density=power_log_density(0.0), label="lebesgue")


def point_mass(t: float, weight: float = 1.0) -> RadialMeasure:
    return RadialMeasure(atoms=[(t, weight)])


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
        if mu.density.kind != "power_log":
            raise ConstructionError("custom densities have no JSON form")
        doc["density"] = {"kind": "power_log", "s": mu.density.s, "gamma": mu.density.gamma_log}
    else:
        doc["density"] = None
    doc["label"] = mu.label
    return doc


def moments_to_csv(mu: RadialMeasure, n_max: int, stream=None) -> str:
    """Write moments n = 0..n_max as CSV with columns n, mu_n."""
    buf = stream or io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "mu_n"])
    values = mu.contiguous_moments(n_max)
    for n, v in enumerate(values):
        writer.writerow([n, repr(float(v))])
    return buf.getvalue() if stream is None else ""


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
        if mu.density.kind == "power_log":
            density = power_log_density(mu.density.s - gamma, mu.density.gamma_log)
        else:
            inner = mu.density.eval
            density = custom_density(lambda t, omt: inner(t, omt) * omt ** (-gamma))
    return RadialMeasure(atoms, density, label=f"({mu.label}) / (1-t)^{gamma:g}")


@dataclass(frozen=True)
class ReweightAgreement:
    """Comparison of the two equivalent Carleson readings of one measure."""

    original: CriterionResult
    transformed: CriterionResult
    beta: float
    gamma: float
    agree: bool


def reweight_agreement(mu: RadialMeasure, beta: float, gamma: float, depth: int = 24) -> ReweightAgreement:
    """Check that mu is (beta+gamma)-Carleson exactly when d mu/(1-t)^gamma is beta-Carleson."""
    original = carleson_sup(mu, 0.0, beta + gamma, depth)
    transformed = carleson_sup(power_reweight(mu, gamma), 0.0, beta, depth)
    return ReweightAgreement(
        original,
        transformed,
        beta,
        gamma,
        agree=original.verdict == transformed.verdict,
    )
