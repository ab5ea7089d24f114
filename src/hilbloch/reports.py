"""Serialization of verification reports to JSON, CSV, and Markdown.

JSON keeps every per-case detail; CSV flattens one row per case for
spreadsheet diffing; Markdown renders one table per suite for human review.
An empty report list is valid in every format.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DomainError
from .suites import VerificationReport

FORMAT_JSON = "json"
FORMAT_CSV = "csv"
FORMAT_MARKDOWN = "md"

_CSV_COLUMNS = [
    "suite",
    "case",
    "left_name",
    "right_name",
    "left",
    "right",
    "ratio",
    "left_verdict",
    "right_verdict",
    "agree",
]


def _as_list(reports: VerificationReport | Sequence[VerificationReport]) -> list[VerificationReport]:
    if isinstance(reports, VerificationReport):
        return [reports]
    return list(reports)


def render_json(reports: VerificationReport | Sequence[VerificationReport]) -> str:
    items = _as_list(reports)
    doc = {
        "all_agree": all(rep.agreement for rep in items),
        "reports": [rep.to_dict() for rep in items],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_csv(reports: VerificationReport | Sequence[VerificationReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rep in _as_list(reports):
        for case in rep.cases:
            writer.writerow(
                [
                    rep.suite,
                    case.label,
                    case.left_name,
                    case.right_name,
                    repr(float(case.left)),
                    repr(float(case.right)),
                    repr(float(case.ratio)),
                    case.left_verdict,
                    case.right_verdict,
                    case.agree,
                ]
            )
    return buffer.getvalue()


def _markdown_table(rows: Iterable[Sequence[str]], header: Sequence[str]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join(" --- " for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(item) for item in row) + " |")
    return lines


def render_markdown(reports: VerificationReport | Sequence[VerificationReport]) -> str:
    lines: list[str] = ["# Verification report", ""]
    items = _as_list(reports)
    if not items:
        lines.append("No suites were run.")
        return "\n".join(lines) + "\n"
    lines.append(f"All suites agree: **{all(rep.agreement for rep in items)}**")
    lines.append("")
    for rep in items:
        lines.append(f"## {rep.suite}")
        lines.append("")
        lines.append(f"Agreement: **{rep.agreement}** ({len(rep.cases)} cases, {rep.wall_time:.2f}s)")
        lines.append(f"Resolution: `{json.dumps(rep.resolution, sort_keys=True)}`")
        lines.append("")
        rows = [
            [
                case.label,
                f"{case.left:.6g}",
                f"{case.right:.6g}",
                f"{case.ratio:.4g}",
                case.left_verdict,
                case.right_verdict,
                "yes" if case.agree else "NO",
            ]
            for case in rep.cases
        ]
        lines.extend(_markdown_table(rows, ["case", "left", "right", "ratio", "left verdict", "right verdict", "agree"]))
        lines.append("")
    return "\n".join(lines) + "\n"


_RENDERERS = {
    FORMAT_JSON: render_json,
    FORMAT_CSV: render_csv,
    FORMAT_MARKDOWN: render_markdown,
}


def emit_report(reports: VerificationReport | Sequence[VerificationReport], fmt: str = FORMAT_JSON) -> str:
    """Render reports in the requested format; unknown formats are rejected."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise DomainError(f"unknown report format {fmt!r}; choose from {sorted(_RENDERERS)}") from None
    return renderer(reports)


def write_report(
    reports: VerificationReport | Sequence[VerificationReport],
    out_dir: str | Path,
    fmt: str = FORMAT_JSON,
) -> Path:
    """Render reports and write them to out_dir/report.<fmt>; returns the written path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"report.{fmt}"
    path.write_text(emit_report(reports, fmt), encoding="utf-8")
    return path
