"""Command-line interface: verification suites plus direct numeric utilities.

Weights, measures, and series passed on the command line may be catalog
names, inline JSON, or paths to JSON/CSV files.  ``verify`` exits 0 only
when every suite it ran reports full agreement.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .bloch import _METHODS, METHOD_DIRECT, bloch_norm
from .catalog import resolve_measure, resolve_series, resolve_weight
from .errors import ConstructionError, HilblochError
from .hilbert_op import (
    OperatorConfig,
    apply_coefficient,
    apply_quadrature,
    criterion_beta_spaces,
    criterion_bloch_to_gamma,
    criterion_general,
    criterion_log_spaces,
    criterion_moment,
    operator_norm_probe,
)
from .measures import moments_to_csv
from .reports import FORMAT_JSON, emit_report, write_report
from .series import series_from_csv, series_to_csv
from .suites import ExperimentConfig, config_from_json, default_config, list_suites, run_suite


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConstructionError(f"{source} is not valid JSON: {exc}") from None


def _load_spec(value: str):
    """Catalog name, inline JSON, or path to a JSON document."""
    text = value.strip()
    if text.startswith("{") or text.startswith("["):
        return _parse_json(text, "inline spec")
    path = Path(value)
    if path.suffix.lower() == ".json" and path.exists():
        return _parse_json(path.read_text(encoding="utf-8"), str(path))
    return value


def _series_arg(value: str, truncation: int):
    text = value.strip()
    path = Path(value)
    if path.suffix.lower() == ".csv" and path.exists():
        return series_from_csv(path.read_text(encoding="utf-8")).pad(truncation)
    spec = _load_spec(text)
    return resolve_series(spec, truncation)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, default=float))


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# -- subcommand bodies ---------------------------------------------------------


def _cmd_verify(args) -> int:
    configs: list[ExperimentConfig] = []
    for path in args.config or []:
        doc = _parse_json(Path(path).read_text(encoding="utf-8"), path)
        configs.append(config_from_json(doc))
    for suite in args.suite or []:
        configs.append(default_config(suite))
    if not configs:
        raise HilblochError("verify needs at least one --config file or --suite id")
    if args.resolution_scale is not None:
        configs = [
            dataclasses.replace(cfg, resolution_scale=cfg.resolution_scale * args.resolution_scale)
            for cfg in configs
        ]
    reports = []
    for cfg in configs:
        report = run_suite(cfg)
        reports.append(report)
        status = "agree" if report.agreement else "DISAGREE"
        print(f"{report.suite}: {status} ({len(report.cases)} cases, {report.wall_time:.1f}s)", file=sys.stderr)
    if args.out is not None:
        path = write_report(reports, args.out, args.format)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(emit_report(reports, args.format))
    return 0 if all(rep.agreement for rep in reports) else 1


def _cmd_moments(args) -> int:
    mu = resolve_measure(_load_spec(args.measure))
    _write_text(moments_to_csv(mu, args.n_max), args.out)
    return 0


def _cmd_bloch_norm(args) -> int:
    weight = resolve_weight(_load_spec(args.weight))
    series = _series_arg(args.series, args.truncation)
    estimate = bloch_norm(series, weight, method=args.method)
    _print_json(estimate.to_dict())
    return 0


def _cmd_apply(args) -> int:
    mu = resolve_measure(_load_spec(args.measure))
    series = _series_arg(args.series, args.truncation)
    cfg = OperatorConfig(alpha=args.alpha, measure=mu, truncation=args.truncation)
    image = apply_coefficient(series, cfg)
    if args.z is None:
        _write_text(series_to_csv(image), args.out)
        return 0
    if len(args.z) > 2:
        raise HilblochError(f"--z takes RE and an optional IM, got {len(args.z)} numbers")
    z = complex(args.z[0], args.z[1] if len(args.z) > 1 else 0.0)
    direct = apply_quadrature(series, cfg, z)
    from_series = image(z)
    scale = max(abs(direct), abs(from_series), 1e-300)
    doc = {
        "z": [z.real, z.imag],
        "series_value": [complex(from_series).real, complex(from_series).imag],
        "quadrature_value": [complex(direct).real, complex(direct).imag],
        "relative_gap": abs(complex(direct) - complex(from_series)) / scale,
    }
    _print_json(doc)
    return 0


def _power_of_two(exponent: int, flag: str) -> int:
    """2^exponent for the value of an exponent flag; a negative one is refused by flag name."""
    if exponent < 0:
        raise HilblochError(f"{flag} must be nonnegative, got {exponent}")
    return 2**exponent


def _cmd_criterion(args) -> int:
    mu = resolve_measure(_load_spec(args.measure))
    n_max = _power_of_two(args.n_max_exponent, "--n-max-exponent")

    def need(name: str):
        value = getattr(args, name)
        if value is None:
            raise HilblochError(f"criterion kind {args.kind!r} needs --{name.replace('_', '-')}")
        return value

    if args.kind in ("moment", "general"):
        criterion = criterion_moment if args.kind == "moment" else criterion_general
        omega, nu = resolve_weight(_load_spec(need("omega"))), resolve_weight(_load_spec(need("nu")))
        result = criterion(mu, omega, nu, need("alpha"), n_max=n_max)
    elif args.kind == "log-target":
        result = criterion_bloch_to_gamma(mu, need("alpha"), need("gamma"), n_max=n_max, depth=args.depth)
    elif args.kind == "beta":
        result = criterion_beta_spaces(mu, need("alpha"), need("beta"), need("gamma"), depth=args.depth)
    else:
        result = criterion_log_spaces(mu, need("alpha"), need("beta"), need("gamma"), n_max=n_max, depth=args.depth)
    _print_json(result.to_dict())
    return 0


def _cmd_probe(args) -> int:
    mu = resolve_measure(_load_spec(args.measure))
    omega = resolve_weight(_load_spec(args.omega))
    nu = resolve_weight(_load_spec(args.nu))
    cfg = OperatorConfig(args.alpha, mu, _power_of_two(args.truncation_exponent, "--truncation-exponent"))
    _print_json(operator_norm_probe(cfg, omega, nu).to_dict())
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbloch",
        description="Integral-kernel averaging operators on weighted Bloch spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites from config files")
    verify.add_argument("--config", action="append", metavar="FILE", help="suite config JSON (repeatable)")
    verify.add_argument(
        "--suite", action="append", metavar="ID", choices=list_suites(), help="run a suite with default options"
    )
    verify.add_argument("--out", metavar="DIR", help="directory for the rendered report")
    verify.add_argument("--format", choices=["json", "csv", "md"], default=FORMAT_JSON)
    verify.add_argument(
        "--resolution-scale", type=float, default=None, help="multiply every ladder depth by this factor"
    )
    verify.set_defaults(handler=_cmd_verify)

    moments = sub.add_parser("moments", help="write a CSV moment table for a measure")
    moments.add_argument("--measure", required=True)
    moments.add_argument("--n-max", type=int, default=64)
    moments.add_argument("--out", metavar="FILE")
    moments.set_defaults(handler=_cmd_moments)

    norm = sub.add_parser("bloch-norm", help="estimate a weighted Bloch norm")
    norm.add_argument("--series", required=True)
    norm.add_argument("--weight", required=True)
    norm.add_argument("--method", choices=list(_METHODS), default=METHOD_DIRECT)
    norm.add_argument("--truncation", type=int, default=4096)
    norm.set_defaults(handler=_cmd_bloch_norm)

    apply_cmd = sub.add_parser("apply", help="apply the averaging operator to a series")
    apply_cmd.add_argument("--measure", required=True)
    apply_cmd.add_argument("--series", required=True)
    apply_cmd.add_argument("--alpha", type=float, required=True)
    apply_cmd.add_argument("--truncation", type=int, default=256)
    apply_cmd.add_argument(
        "--z", type=float, nargs="+", metavar="RE [IM]", help="evaluate at z and cross-check by quadrature"
    )
    apply_cmd.add_argument("--out", metavar="FILE", help="CSV destination for image coefficients")
    apply_cmd.set_defaults(handler=_cmd_apply)

    criterion = sub.add_parser("criterion", help="run a boundedness criterion")
    criterion.add_argument(
        "--kind", required=True, choices=["moment", "general", "log-target", "beta", "log-source"]
    )
    criterion.add_argument("--measure", required=True)
    criterion.add_argument("--omega", help="source weight (moment/general kinds)")
    criterion.add_argument("--nu", help="target weight (moment/general kinds)")
    criterion.add_argument("--alpha", type=float)
    criterion.add_argument("--beta", type=float)
    criterion.add_argument("--gamma", type=float)
    criterion.add_argument("--n-max-exponent", type=int, default=18)
    criterion.add_argument("--depth", type=int, default=24)
    criterion.set_defaults(handler=_cmd_criterion)

    probe = sub.add_parser("probe", help="norm-ratio growth probe under truncation doubling")
    probe.add_argument("--measure", required=True)
    probe.add_argument("--omega", required=True)
    probe.add_argument("--nu", required=True)
    probe.add_argument("--alpha", type=float, required=True)
    probe.add_argument("--truncation-exponent", type=int, default=10)
    probe.set_defaults(handler=_cmd_probe)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads: built by its first call, then kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (HilblochError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
