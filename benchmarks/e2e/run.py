"""One repeatable end-to-end benchmark: the parent process.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py selfcheck

The parent only launches children and waits: every repetition of every
workload runs in a fresh interpreter (``child.py``), one at a time.  A
timed run (``--trace 0``) reports each end-to-end metric as the median of
at least five repetitions; a traced run (``--trace 1``) reports the
per-layer metrics and never feeds the end-to-end medians.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any answer was wrong.  ``BENCHMARK.json`` at the repository root names
the metrics, their units and regression bounds; README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.params import (  # noqa: E402
    MAX_REPETITIONS,
    PINNED_ENV,
    PROFILES,
    REPETITIONS,
    WORKLOADS,
)

#: A single-workload invocation must end within 180 s; children are
#: killed at this many seconds per workload and no repetition beyond the
#: minimum starts once ``SOFT_LIMIT_S`` has passed.
HARD_LIMIT_S = 170.0
SOFT_LIMIT_S = 120.0

Record = Dict[str, Any]


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> Dict[str, Any]:
    return json.loads((HERE / "expected.json").read_text())


def n_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# ----------------------------------------------------------------------
# Launching one repetition
# ----------------------------------------------------------------------
def child_environment(scratch: Path) -> Dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")  # no inherited tracing or backend
    }
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(scratch)  # nothing is written outside the checkout
    return env


def launch(
    workload: str,
    seed: int,
    profile: str,
    scratch: Path,
    deadline: float,
    trace: bool = False,
    probes: bool = False,
) -> Record:
    """Run one repetition in a fresh interpreter and parse its record.

    The child leads its own process group, so its pool workers and shard
    subprocesses die with it if it has to be killed.  A repetition that
    crashed, hung or printed no record comes back as ``{"crashed": why}``.
    """
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload,
        "--profile", profile,
        "--seed", str(seed),
        "--workers", str(n_workers()),
        "--workdir", str(workdir),
        "--trace", str(int(trace)),
        "--probes", str(int(probes)),
        "--launched", repr(time.monotonic()),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_environment(scratch),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"crashed": "timed out"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"crashed": f"exit {process.returncode}: {stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crashed": f"unparsable record: {lines[-1][:200]}"}


# ----------------------------------------------------------------------
# Judging a set of repetitions
# ----------------------------------------------------------------------
def judge(
    workload: str, seed: int, profile: str, records: Sequence[Record]
) -> Dict[str, Any]:
    """Operations attempted/failed and every reason the answer is wrong."""
    problems: List[str] = []
    sizes = [r["attempted"] for r in records if "attempted" in r]
    per_repetition = max(sizes, default=1)
    attempted = failed = 0
    for number, record in enumerate(records, 1):
        attempted += record.get("attempted", per_repetition)
        if "crashed" in record:
            failed += per_repetition
            problems.append(f"repetition {number} {record['crashed']}")
            continue
        failed += record["failed"]
        problems += [f"repetition {number}: {e}" for e in record["errors"]]
    digests = {r["sha256"] for r in records if "sha256" in r}
    if len(digests) > 1:
        problems.append(
            f"outcomes differ between repetitions: {sorted(digests)}"
        )
    expected = load_expected().get(f"{workload}|{profile}|seed={seed}")
    checked = "not committed for this seed"
    if expected is not None:
        checked = "match"
        for record in records:
            if "aggregates" in record and record["aggregates"] != expected:
                checked = "MISMATCH"
                problems.append(
                    f"aggregates {record['aggregates']} differ from "
                    f"expected.json {expected}"
                )
                break
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "expected": checked,
        "sha256": sorted(digests),
    }


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(
    records: Sequence[Record], metrics: Iterable[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Median, quartiles and sample count per end-to-end metric."""
    good = [r for r in records if "wall_s" in r]
    summary = {}
    for metric in metrics:
        values = [r[metric["name"]] for r in good]
        if not values:
            continue
        q1, _, q3 = quartiles(values)
        summary[metric["name"]] = {
            "value": statistics.median(values),
            "unit": metric["unit"],
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "samples": values,
        }
    return summary


def fingerprint(
    workload: str, seed: int, profile: str, records: Sequence[Record]
) -> Dict[str, Any]:
    """Everything two result files must share to be comparable."""
    first = next((r for r in records if "environment" in r), {})
    return {
        "workload": workload,
        "seed": seed,
        "profile": profile,
        "repetitions": len(records),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": n_workers(),
        "pinned_env": PINNED_ENV,
        "parameters": PROFILES[profile][workload],
        "sizes": first.get("sizes"),
        **first.get("environment", {}),
    }


# ----------------------------------------------------------------------
# Timed runs
# ----------------------------------------------------------------------
def timed_repetitions(
    workloads: Sequence[str],
    seed: int,
    profile: str,
    seconds: float,
    minimum: int,
    scratch: Path,
) -> Dict[str, List[Record]]:
    """At least ``minimum`` repetitions each, round-robin across workloads.

    Round-robin makes each workload's samples span the whole invocation
    instead of one slow patch of the machine.  A workload keeps getting
    repetitions past the minimum until its summed measured time reaches
    ``seconds`` — so a faster program is measured for as long, not less.
    """
    start = time.monotonic()
    hard = start + HARD_LIMIT_S * len(workloads)
    soft = start + SOFT_LIMIT_S * len(workloads)
    records: Dict[str, List[Record]] = {name: [] for name in workloads}

    def wants_more(name: str) -> bool:
        done = records[name]
        if len(done) < minimum:
            return True
        measured = sum(r.get("wall_s", 0.0) for r in done)
        return (
            measured < seconds
            and len(done) < MAX_REPETITIONS
            and time.monotonic() < soft
        )

    while True:
        pending = [name for name in workloads if wants_more(name)]
        if not pending:
            return records
        for name in pending:
            records[name].append(launch(name, seed, profile, scratch, hard))


def print_verdict(verdict: Dict[str, Any]) -> None:
    print(
        f"  operations attempted {verdict['attempted']}, "
        f"failed {verdict['failed']}; outcome sha256 "
        f"{[d[:12] for d in verdict['sha256']]}; "
        f"expected aggregates: {verdict['expected']}"
    )
    for problem in verdict["problems"]:
        print(f"  WRONG: {problem}")


def run_timed(
    workloads: Sequence[str], args: argparse.Namespace, spec: Dict[str, Any],
    scratch: Path,
) -> Dict[str, Any]:
    # The smoke run is one repetition however little time it measures.
    minimum, seconds = (1, 0.0) if args.smoke else (REPETITIONS, args.seconds)
    records = timed_repetitions(
        workloads, args.seed, args.profile, seconds, minimum, scratch
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    document: Dict[str, Any] = {}
    for name in workloads:
        summary = summarize(records[name], spec["end_to_end"])
        verdict = judge(name, args.seed, args.profile, records[name])
        prints = fingerprint(name, args.seed, args.profile, records[name])
        print(f"== {name}  fingerprint {json.dumps(prints, sort_keys=True)}")
        for metric, entry in summary.items():
            print(
                f"  {metric:<12s} {entry['value']:>10.4f} {entry['unit']:<3s}"
                f"  q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  n={entry['n']}"
                f"  bound {100 * bounds[metric]:.0f}%"
            )
        print_verdict(verdict)
        aggregates = next(
            (r["aggregates"] for r in records[name] if "aggregates" in r), None
        )
        print(f"  aggregates {json.dumps(aggregates, sort_keys=True)}")
        document[name] = {
            "fingerprint": prints,
            "metrics": summary,
            "verdict": verdict,
            "aggregates": aggregates,
            "records": records[name],
        }
    return document


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def run_traced(
    workloads: Sequence[str], args: argparse.Namespace, spec: Dict[str, Any],
    scratch: Path, untraced: Optional[Dict[str, List[Record]]] = None,
) -> Dict[str, Any]:
    """Untraced/traced pairs per workload; the last traced child probes.

    The untraced repetitions exist only to price the tracer
    (``telemetry.overhead_share``); they never reach the end-to-end
    medians of a timed run.  The smoke run hands in the untraced
    repetitions it already has instead of paying for more.
    """
    pairs = 1 if args.smoke else 2
    hard = time.monotonic() + HARD_LIMIT_S * len(workloads)
    known = {m["name"]: m["unit"] for m in spec["per_layer"]}
    document: Dict[str, Any] = {}
    for name in workloads:
        records: List[Record] = []
        for pair in range(pairs):
            records.append(
                untraced[name][pair] if untraced is not None
                else launch(name, args.seed, args.profile, scratch, hard)
            )
            records.append(
                launch(
                    name, args.seed, args.profile, scratch, hard,
                    trace=True, probes=pair == pairs - 1,
                )
            )
        verdict = judge(name, args.seed, args.profile, records)
        layers: Dict[str, float] = dict(records[-1].get("layers", {}))
        plain = [r["wall_s"] for r in records[0::2] if "wall_s" in r]
        traced = [r["wall_s"] for r in records[1::2] if "wall_s" in r]
        if plain and traced:
            layers["telemetry.overhead_share"] = (
                statistics.mean(traced) / statistics.mean(plain) - 1.0
            )
        for unknown in sorted(set(layers) - set(known)):
            verdict["correct"] = False
            verdict["problems"].append(
                f"layer metric {unknown!r} is not in BENCHMARK.json"
            )
        prints = fingerprint(name, args.seed, args.profile, records)
        print(f"== {name}  fingerprint {json.dumps(prints, sort_keys=True)}")
        for metric, unit in known.items():
            shown = f"{layers[metric]:>12.5f}" if metric in layers else "         n/a"
            print(f"  {metric:<28s} {shown} {unit}")
        print_verdict(verdict)
        document[name] = {
            "fingerprint": prints,
            "metrics": {
                metric: {"value": layers[metric], "unit": known[metric]}
                for metric in known if metric in layers
            },
            "verdict": verdict,
            "spans": records[-1].get("spans"),
        }
    return document


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def result_line(
    document: Dict[str, Any], names: Iterable[Dict[str, Any]]
) -> Dict[str, Any]:
    """The one-line result: every named metric, prefixed when several
    workloads ran.  A per-layer metric that does not apply to the
    workload reads 0 here and ``n/a`` in the table above."""
    single = len(document) == 1
    metrics = {}
    for workload, entry in document.items():
        for metric in names:
            measured = entry["metrics"].get(metric["name"], {"value": 0.0})
            label = metric["name"] if single else f"{workload}/{metric['name']}"
            metrics[label] = {
                "value": measured["value"], "unit": metric["unit"],
            }
    verdicts = [entry["verdict"] for entry in document.values()]
    return {
        "correct": all(v["correct"] for v in verdicts),
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": metrics,
    }


def finish(
    document: Dict[str, Any], names: Iterable[Dict[str, Any]],
    out: Optional[str],
) -> int:
    if out:
        Path(out).write_text(json.dumps(document, indent=2, sort_keys=True))
    line = result_line(document, names)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def smoke(args: argparse.Namespace, spec: Dict[str, Any], scratch: Path) -> int:
    """Tiny sizes, one repetition: every workload, probe and check."""
    timed = run_timed(WORKLOADS, args, spec, scratch)
    traced = run_traced(
        WORKLOADS, args, spec, scratch,
        untraced={name: entry["records"] for name, entry in timed.items()},
    )
    produced = {m for entry in traced.values() for m in entry["metrics"]}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    for name in missing:
        print(f"WRONG: no workload produced layer metric {name!r}")
    status = finish(traced, spec["per_layer"], None)
    status |= finish(timed, spec["end_to_end"], args.out)
    return 1 if missing else status


def selfcheck(args: argparse.Namespace, spec: Dict[str, Any], scratch: Path) -> int:
    """A/A: the suite twice; medians must agree within the bounds."""
    first = run_timed(WORKLOADS, args, spec, scratch)
    second = run_timed(WORKLOADS, args, spec, scratch)
    status = 0
    print("== selfcheck: second median vs first, and quartile spread of each")
    for name in WORKLOADS:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"].get(metric["name"])
            b = second[name]["metrics"].get(metric["name"])
            if a is None or b is None:
                print(f"  {name}/{metric['name']}: no samples")
                status = 1
                continue
            difference = b["value"] / a["value"] - 1.0
            spreads = [(e["q3"] - e["q1"]) / e["value"] for e in (a, b)]
            worse = abs(difference) > metric["bound"]
            status |= int(worse)
            print(
                f"  {name + '/' + metric['name']:<28s} {a['value']:>9.4f} ->"
                f" {b['value']:>9.4f} {metric['unit']:<3s} {100 * difference:+6.2f}%"
                f"  spread {100 * spreads[0]:5.2f}% / {100 * spreads[1]:5.2f}%"
                f"  bound {100 * metric['bound']:.0f}%"
                f"{'  EXCEEDED' if worse else ''}"
            )
    for run in (first, second):
        status |= int(not all(e["verdict"]["correct"] for e in run.values()))
    print("selfcheck " + ("FAILED" if status else "passed"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "command", nargs="?", default="run", choices=("run", "selfcheck")
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure each workload for at least this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition, everything once")
    parser.add_argument("--out", default=None,
                        help="also write the full result document here")
    args = parser.parse_args(argv)
    args.profile = "smoke" if args.smoke else "full"

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    workloads = (args.workload,) if args.workload else WORKLOADS
    try:
        if args.command == "selfcheck":
            return selfcheck(args, spec, scratch)
        if args.smoke:
            return smoke(args, spec, scratch)
        if args.trace:
            document = run_traced(workloads, args, spec, scratch)
            return finish(document, spec["per_layer"], args.out)
        document = run_timed(workloads, args, spec, scratch)
        return finish(document, spec["end_to_end"], args.out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()  # unless another invocation is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
