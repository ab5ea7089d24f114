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
from .quadrature import integrate_radial, panel_points
from .trend import CriterionResult, radius_ladder, summarize_ladder

TAIL_MATCH_RTOL = 1e-8
# Deepest u = -log(1-t) reachable before e^{-u} leaves the normal range of doubles.
_U_CAP = 680.0


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


class _NodeSet:
    __slots__ = ("t", "omt", "base")

    def __init__(self, t: np.ndarray, omt: np.ndarray, base: np.ndarray):
        self.t = t
        self.omt = omt
        self.base = base


def _u_edges(breakpoints: Sequence[float]) -> tuple[float, ...]:
    """Map radii in (0, 1) to panel cuts on the u = -log(1-t) axis."""
    return tuple(sorted({-math.log1p(-float(b)) for b in breakpoints if 0.0 < b < 1.0}))


class RadialMeasure:
    """atoms + density measure with cached moments and node grids."""

    def __init__(
        self,
        atoms: Sequence[tuple[float, float]] = (),
        density: Density | None = None,
        tail_fn: Callable[[float], float] | None = None,
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
        self._node_cache: dict[tuple, _NodeSet] = {}
        self._grid_spec: tuple[float, int] | None = None

        if density is not None and tail_fn is None and density.kind == "power_log" and density.gamma_log == 0.0:
            s = density.s
            if s > -1.0:
                tail_fn = lambda t: (1.0 - t) ** (s + 1.0) / (s + 1.0)  # noqa: E731
        self.tail_fn = tail_fn

        density_mass = 0.0
        if density is not None:
            try:
                density_mass = integrate_radial(density.eval, 0.0, 1.0, rel_tol=1e-10)
            except NumericsError as exc:
                raise ConstructionError(f"density mass diverges: {exc}") from exc
            if not density_mass >= 0.0:
                raise ConstructionError(f"density must be nonnegative, got mass {density_mass}")
        self.mass = density_mass + sum(wgt for _, wgt in self.atoms)
        if self.tail_fn is not None:
            self._check_tail_consistency()

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

    def _check_tail_consistency(self) -> None:
        # tail_fn covers the density part only; atoms are summed separately.
        for m in range(1, 13):
            t = 1.0 - 2.0**-m
            direct = 0.0
            if self.density is not None:
                direct = integrate_radial(self.density.eval, t, 1.0, rel_tol=1e-11)
            closed = float(self.tail_fn(t))
            if abs(closed - direct) > TAIL_MATCH_RTOL * (abs(direct) + 1e-12 * self.mass):
                raise ConstructionError(
                    f"closed-form tail disagrees with quadrature at t={t}: {closed} vs {direct}"
                )

    # -- node grid ---------------------------------------------------------

    def _nodes(self, U: float, level: int, edges: tuple[float, ...] = ()) -> _NodeSet:
        key = (U, level, edges)
        found = self._node_cache.get(key)
        if found is not None:
            return found
        cuts = np.array([0.0, *(e for e in edges if 0.0 < e < U), U])
        panels = max(8, int(math.ceil(U / 2.0)) * 2**level)
        u, du = panel_points(cuts, panels)
        omt = np.exp(-u)
        t = -np.expm1(-u)
        base = self.density.eval(t, omt) * omt * du
        nodes = _NodeSet(t, omt, base)
        self._node_cache[key] = nodes
        return nodes

    def _density_sums(self, ns: Sequence[int], phi, U: float, level: int, edges=()) -> np.ndarray:
        nodes = self._nodes(U, level, edges)
        vals = nodes.base if phi is None else nodes.base * np.asarray(phi(nodes.t, nodes.omt), dtype=float)
        out = np.empty(len(ns))
        for i, n in enumerate(ns):
            out[i] = float(vals @ np.power(nodes.t, n)) if n else float(vals.sum())
        return out

    def _integrand_scale(self, phi, U: float, level: int, edges) -> float:
        """l1 mass of the weighted integrand; anchors tolerances when moments cancel."""
        if phi is None:
            return 0.0
        nodes = self._nodes(U, level, edges)
        vals = nodes.base * np.asarray(phi(nodes.t, nodes.omt), dtype=float)
        return float(np.abs(vals).sum())

    def _density_grid(self, n_top: int, phi, rel_tol: float, edges=()) -> tuple[float, int]:
        """Pick (U, level) so the hardest density moments are stable to rel_tol."""
        if self._grid_spec is not None and phi is None and not edges:
            U, level = self._grid_spec
            if U >= math.log(n_top + 1.0) + 8.0:
                return self._grid_spec
        probe = sorted({0, int(n_top)})
        U = max(16.0, math.log(n_top + 1.0) + 8.0)
        while True:
            step = max(8.0, 0.5 * U)
            cur = self._density_sums(probe, phi, U, 1, edges)
            ext = self._density_sums(probe, phi, U + step, 1, edges)
            floor = 0.01 * self._integrand_scale(phi, U + step, 1, edges)
            if np.all(np.abs(ext - cur) <= 0.25 * rel_tol * (np.abs(ext) + floor) + 1e-300):
                U = U + step
                break
            U = U + step
            if U > _U_CAP:
                raise NumericsError("density moments did not stabilize in the tail; measure nearly divergent")
        floor = 0.01 * self._integrand_scale(phi, U, 1, edges)
        level = 1
        cur = self._density_sums(probe, phi, U, level, edges)
        while level < 10:
            nxt = self._density_sums(probe, phi, U, level + 1, edges)
            level += 1
            if np.all(np.abs(nxt - cur) <= rel_tol * (np.abs(nxt) + floor) + 1e-300):
                break
            cur = nxt
        else:
            raise NumericsError("density moment refinement did not converge")
        if phi is None and not edges:
            self._grid_spec = (U, level)
        return U, level

    # -- moments -----------------------------------------------------------

    def _atom_sums(self, ns: Sequence[int], phi) -> np.ndarray:
        out = np.zeros(len(ns))
        for t, wgt in self.atoms:
            factor = wgt if phi is None else wgt * float(phi(np.asarray([t]), np.asarray([1.0 - t]))[0])
            for i, n in enumerate(ns):
                out[i] += factor * t**n
        return out

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
        out = self._atom_sums(ns, phi)
        if self.density is not None:
            edges = _u_edges(breakpoints)
            U, level = self._density_grid(max(ns), phi, rel_tol, edges)
            out = out + self._density_sums(ns, phi, U, level, edges)
        return out

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
        """Moments for every n = 0..n_max, sharing one node grid."""
        n_max = int(n_max)
        out = np.zeros(n_max + 1)
        for t, wgt in self.atoms:
            factor = wgt if phi is None else wgt * float(phi(np.asarray([t]), np.asarray([1.0 - t]))[0])
            out += factor * t ** np.arange(n_max + 1, dtype=float)
        if self.density is not None:
            edges = _u_edges(breakpoints)
            U, level = self._density_grid(n_max, phi, rel_tol, edges)
            nodes = self._nodes(U, level, edges)
            vals = nodes.base if phi is None else nodes.base * np.asarray(phi(nodes.t, nodes.omt), dtype=float)
            acc = vals.copy()
            dens = np.empty(n_max + 1)
            dens[0] = acc.sum()
            for n in range(1, n_max + 1):
                acc *= nodes.t
                dens[n] = acc.sum()
            out += dens
        return out

    def hankel_entry(self, n: int, k: int) -> float:
        return self.moment(n + k)

    def integral(
        self,
        fn,
        rel_tol: float = 1e-10,
        breakpoints: Sequence[float] = (),
        abs_floor: float = 0.0,
        upper: float = 1.0,
    ) -> float:
        """Integral of fn(t, 1-t) against the measure over [0, upper]; divergence raises NumericsError."""
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
        gaps = 2.0 ** -np.arange(1, depth + 1, dtype=float)
        return gaps, np.array([self.tail(t) for t in radius_ladder(depth)])


# -- constructors ---------------------------------------------------------


def radial_measure(
    atoms: Sequence[tuple[float, float]] = (),
    density: Density | None = None,
    tail_fn: Callable[[float], float] | None = None,
    label: str | None = None,
) -> RadialMeasure:
    return RadialMeasure(atoms, density, tail_fn, label)


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
