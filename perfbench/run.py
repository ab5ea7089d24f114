#!/usr/bin/env python3
"""Benchmark for hilbloch: end-to-end times untraced, layer times traced.

One workload, with the arguments the benchmark is run with (from the repository root):

    python3 perfbench/run.py --workload verify_scale1 --seed 1 --seconds 36 --trace 0

Every workload, untraced and then traced, with a summary table and the
tracing overhead (traced minus untraced ``wall_s``):

    python3 perfbench/run.py --seed 1 --seconds 36

A run repeats whole rounds of its workload, starting another while at least
half of it fits in ``--seconds``.  Each round runs on one CPU, the rounds
taking the usable CPUs in turn.  Each round imports ``hilbloch`` afresh from
``src/`` and builds its inputs (timed as set-up, with numpy and scipy already
loaded), then runs every step (each timed on its own), then checks the
outputs against values computed apart from the program (untimed); an
untraced run then repeats the set-up alone for about a second.
``setup_s`` is the median of the set-ups; ``wall_s`` is the mean time of a
round's steps, the run's measured step time over its rounds;
``peak_rss_mib`` is the peak resident memory when the first round's steps
have run, before any reference value is computed; layer metrics come from
the fastest traced round.
The last line of standard output is the result object; the line before it
carries the machine facts, per-round figures and failures.
"""

from __future__ import annotations

import os
import sys

# Pin native thread pools before numpy loads; keep bytecode out of src/.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# After each round an untraced run repeats the set-up alone for at least
# SETUP_SECONDS, so that the set-ups behind the median of setup_s are spread
# over the whole run, as the rounds behind wall_s are.
SETUP_SECONDS = 1.0
# The CPUs this process may run on.  On a shared machine they slow down at
# different times, so rounds take them in turn.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Round:
    setup_s: float
    step_s: dict[str, float]  # time of each step of the round, by step name
    peak_rss_mib: float  # process peak when the steps have run, before the check
    checked: object
    tracer: Tracer | None

    @property
    def wall_s(self) -> float:
        return sum(self.step_s.values())


def _fresh_import():
    for name in [n for n in sys.modules if n == "hilbloch" or n.startswith("hilbloch.")]:
        del sys.modules[name]
    hb = importlib.import_module("hilbloch")
    if SRC not in Path(hb.__file__).resolve().parents:
        raise RuntimeError(f"imported hilbloch from {hb.__file__}, not from {SRC}")
    return hb


def _one_round(workload, seed: int, traced: bool, number: int) -> Round:
    if CPUS:
        os.sched_setaffinity(0, {CPUS[number % len(CPUS)]})
    gc.collect()
    t0 = time.perf_counter()
    hb = _fresh_import()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        tracer.enter("round")
    steps = workload.setup(hb, seed)
    setup_s = time.perf_counter() - t0
    gc.collect()
    step_s, results = {}, []
    for step in steps:
        t = time.perf_counter()
        value = step.call()
        step_s[step.name] = time.perf_counter() - t
        results.append((step, value))
    if tracer is not None:
        tracer.exit()
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Round(setup_s, step_s, peak_rss_mib, workload.check(results), tracer)


def _setup_only(workload, seed: int) -> float:
    gc.collect()
    t0 = time.perf_counter()
    workload.setup(_fresh_import(), seed)
    return time.perf_counter() - t0


def _machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(CPUS) or os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = WORKLOADS[name]
    rounds: list[Round] = []
    setups: list[float] = []
    begin = time.perf_counter()
    while True:
        rounds.append(_one_round(workload, seed, traced, len(rounds)))
        setups.append(rounds[-1].setup_s)
        added = 0.0
        while not traced and added < SETUP_SECONDS:
            setups.append(_setup_only(workload, seed))
            added += setups[-1]
        # Untimed checks do not count against the run length.  Another round
        # starts if at least half of it fits, so that runs last `seconds` on average.
        measured = sum(setups) + sum(r.wall_s for r in rounds)
        if measured + measured / len(rounds) / 2 > seconds:
            break
    # The shared machine slows down in bursts of milliseconds whose density
    # changes from one few-second phase to the next, so one round's time, or
    # one step's fastest, depends on the phase it fell in; the mean over the
    # rounds of the whole run averages the phases.
    wall_s = statistics.fmean(r.wall_s for r in rounds)

    outcomes = [r.checked.outcomes for r in rounds]
    failed = [{o.op for o in round_outcomes if not o.ok} for round_outcomes in outcomes]
    failed_why = {o.op: o.why for round_outcomes in outcomes for o in round_outcomes if not o.ok}
    problems = [p for r in rounds for p in r.checked.problems]
    if any([o.op for o in x] != [o.op for o in outcomes[0]] for x in outcomes) or any(f != failed[0] for f in failed):
        problems.append("rounds differ in their operations or in which of them fail")
    # A known fault is expected only as the failure it is known to cause.
    unexpected = sorted({o.op for x in outcomes for o in x if not o.ok and workload.known_faults.get(o.op) != o.fault})

    info = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "machine": _machine(),
        "rounds": len(rounds),
        "operations_per_round": len(outcomes[0]),
        "round_wall_s": [r.wall_s for r in rounds],
        "step_s": {step: [r.step_s[step] for r in rounds] for step in rounds[0].step_s},
        "setup_s": setups,
        "cold_setup_s": begin - START + rounds[0].setup_s,
        "failed_operations": failed_why,
        "unexpected_failures": unexpected,
        "problems": problems,
    }
    if traced:
        per_round = [layers.round_values(r.tracer) for r in rounds]
        fastest = min(rounds, key=lambda r: r.wall_s)
        fastest_values = layers.round_values(fastest.tracer)
        metrics = {}
        for metric, unit, _kind, _key in layers.METRICS:
            values = [values[metric] for values in per_round]
            if unit == "count" and len(set(values)) > 1:
                problems.append(f"{metric} differs between rounds: {values}")
            metrics[metric] = {"value": fastest_values[metric], "unit": unit}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        info["largest_self_times_s"] = layers.self_time_ranking(fastest.tracer)[:8]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
        write_spans(spans, [r.tracer for r in rounds])
        info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mib": {"value": rounds[0].peak_rss_mib, "unit": "MiB"},
        }
    result = {
        "correct": not unexpected and not problems,
        "attempted": sum(len(x) for x in outcomes),
        "failed": sum(1 for x in outcomes for o in x if not o.ok),
        "metrics": metrics,
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, one child process at a time."""
    rows = []
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{name} --trace {trace}: exit code {done.returncode}")
                return 1
            info_line, result_line = done.stdout.strip().splitlines()[-2:]
            results.append((json.loads(info_line), json.loads(result_line)))
        rows.append((name, results))

    print(f"machine: {json.dumps(rows[0][1][0][0]['machine'])}")
    for name, ((info0, plain), (info1, traced)) in rows:
        m, t = plain["metrics"], traced["metrics"]
        overhead = t["trace.wall_s"]["value"] - m["wall_s"]["value"]
        print(f"\n{name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} rounds={info0['rounds']}")
        for key in ("setup_s", "wall_s", "peak_rss_mib"):
            print(f"  {key:<14} {m[key]['value']:.4f} {m[key]['unit']}")
        print(f"  traced wall_s  {t['trace.wall_s']['value']:.4f} s; tracing overhead {overhead:+.4f} s "
              f"({overhead / m['wall_s']['value']:+.1%})")
        print("  largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in info1["largest_self_times_s"]))
        for op, why in sorted(info0["failed_operations"].items()):
            print(f"  failed: {op}: {why}")
        print("  layers: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in t.items() if v["value"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload; omit to run all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hilbloch" / "__init__.py").is_file():
        print(f"error: no hilbloch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
