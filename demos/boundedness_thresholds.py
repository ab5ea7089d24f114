#!/usr/bin/env python3
"""Boundedness thresholds for power-density measures.

Sweeps the density exponent sigma in d mu = (1-t)^sigma dt across the
predicted boundedness threshold for two target-space regimes and prints the
verdict flip.  A norm-ratio probe on concrete test functions corroborates
the criterion on both sides of the critical exponent.
"""

from hilbloch.hilbert_op import OperatorConfig, criterion_beta_spaces, criterion_moment, operator_norm_probe
from hilbloch.measures import RadialMeasure, power_log_density
from hilbloch.weights import power_weight


def sweep(alpha: float, beta: float, gamma: float, threshold: float) -> None:
    print(f"alpha={alpha} beta={beta} gamma={gamma}  (predicted threshold sigma = {threshold})")
    for offset in (-0.5, -0.1, 0.1, 0.5):
        sigma = threshold + offset
        mu = RadialMeasure(density=power_log_density(sigma))
        result = criterion_beta_spaces(mu, alpha=alpha, beta=beta, gamma=gamma, depth=24)
        marker = "above" if offset > 0 else "below"
        print(f"  sigma = {sigma:>5.2f} ({marker}):  verdict = {result.verdict}")
    print()


def main() -> None:
    sweep(alpha=0.5, beta=2.0, gamma=1.0, threshold=1.5)
    sweep(alpha=0.5, beta=0.5, gamma=1.0, threshold=0.5)

    omega = power_weight(0.5)
    print("probe corroboration at alpha=0, omega=nu=(1-t)^0.5:")
    for sigma, tag in ((0.0, "critical"), (1.0, "subcritical")):
        mu = RadialMeasure(density=power_log_density(sigma))
        crit = criterion_moment(mu, omega, omega, 0.0, n_max=2**16)
        cfg = OperatorConfig(alpha=0.0, measure=mu, truncation=2**10)
        probe = operator_norm_probe(cfg, omega, omega)
        print(f"  sigma = {sigma}: criterion = {crit.verdict:<9}  "
              f"probe growth = {probe.growth:.3f} -> {probe.classification} ({tag})")


if __name__ == "__main__":
    main()
