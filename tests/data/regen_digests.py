"""Recompute the named suites' entries of report_digests.json by the file's recipe.

    PYTHONPATH=src python3 tests/data/regen_digests.py SUITE [SUITE ...]

Each named suite is run at resolution scales 1 and 2, and its two digests
are the sha256 of the JSON report with its wall time zeroed, as the
"recipe" field states.  Every other entry, and suite_rows.json, is left as
it is.  The digests hold only for the numpy and scipy versions the file
records, so the script refuses to run under any other.  It prints each
suite's old and new digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from hilbloch.reports import render_json
from hilbloch.suites import ExperimentConfig, list_suites, run_suite

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
SCALES = ("1", "2")


def digest(suite: str, scale: str) -> str:
    report = run_suite(ExperimentConfig(suite, resolution_scale=float(scale)))
    return hashlib.sha256(render_json(dataclasses.replace(report, wall_time=0.0)).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    unknown = sorted(set(argv) - set(list_suites()))
    if unknown:
        print(f"unknown suites: {unknown}; known: {sorted(list_suites())}", file=sys.stderr)
        return 2
    doc = json.loads(DIGESTS.read_text())
    if (np.__version__, scipy.__version__) != (doc["numpy"], doc["scipy"]):
        print(
            f"digests were recorded under numpy {doc['numpy']} and scipy {doc['scipy']}; "
            f"this is numpy {np.__version__} and scipy {scipy.__version__}",
            file=sys.stderr,
        )
        return 2
    for suite in dict.fromkeys(argv):
        new = {scale: digest(suite, scale) for scale in SCALES}
        old = doc["digests"].get(suite, {})
        for scale in SCALES:
            print(f"{suite} scale {scale}: {old.get(scale)} -> {new[scale]}")
        doc["digests"][suite] = new
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
