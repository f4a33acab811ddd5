"""momangle benchmark: three workloads through the public CLI.

    python3 perfbench/run.py --workload walk|analyze|verify --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; momangle is imported from ``src`` next to this
directory.  A run repeats sweeps of the workload's seeded requests, each
sweep in a fresh process (``sweep.py``) so momangle's caches start empty
and in its own seeded request order, one after another, while the next
sweep is expected to end within ``--seconds``.  Requests go one at a time (a closed loop, one client)
through ``momangle.cli.main([..., "--json"])`` with ``--jobs`` at its
default of 1.

``--trace 0`` reports the end-to-end metrics as medians over sweeps:
``setup_s`` (process start to the first request ready), ``wall_s`` (all
requests of a sweep), ``latency_p50_ms`` (median request, pooled over
sweeps) and ``peak_rss_mb``.  The times are scaled to a reference host
speed by probes taken between requests (``hostspeed.py``), because the
shared hosts this runs on drift in speed by more than a regression bound;
the unscaled times of every sweep go to the result file.  ``--trace 1``
alternates untraced and traced sweeps and reports the per-layer metrics
of the traced ones (medians), plus ``trace.overhead_ratio``; it fails
unless the traced ``reduced_homology`` calls equal its cache's hits plus
misses.

Every answer is checked (see ``answers.py``); ``failed_ratio`` is the
share of wrong answers.  The last line of stdout is the result JSON;
the full result, with provenance, goes to ``perfbench/out/``.
``--smoke`` runs one small request per workload, traced and untraced,
and checks that every metric named in BENCHMARK.json appears with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
# A run must end within 180 s; sweeps still going at this point are killed.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def _sweep(
    workload: str, seed: int, sweep: int, trace: int, smoke: bool, timeout: float
) -> dict:
    result_path = OUT / f"sweep-{workload}-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "sweep.py"),
        "--workload", workload, "--seed", str(seed), "--sweep", str(sweep),
        "--trace", str(trace),
        "--result", str(result_path),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.csv.gz")]
    if smoke:
        cmd.append("--smoke")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"sweep exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["raw_setup_s"] = result["ready"] - spawned
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def _median(values) -> float:
    return statistics.median(list(values))


def _provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "momangle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _host_probe_ms() -> float:
    """Median of five host-speed probes.  Inside a VM the load average
    misses contention from other tenants; this shows it."""
    return 1000 * _median(hostspeed.probe_s() for _ in range(5))


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """Sweep until the time is up; return (result line, full report)."""
    load_before = os.getloadavg()
    probe_before = _host_probe_ms()
    began = time.monotonic()
    deadline = began + seconds
    plain, traced, took = [], [], []
    while True:
        start = time.monotonic()
        sweep = len(plain)
        plain.append(
            _sweep(workload, seed, sweep, 0, smoke, began + RUN_LIMIT_S - start)
        )
        if trace:
            now = time.monotonic()
            traced.append(
                _sweep(workload, seed, sweep, 1, smoke, began + RUN_LIMIT_S - now)
            )
        took.append(time.monotonic() - start)
        if time.monotonic() + _median(took) > deadline:
            break

    sweeps = plain + traced
    attempted = sum(s["attempted"] for s in sweeps)
    failures = [f for s in sweeps for f in s["failures"]]
    problems = []
    if trace:
        units = tracing.metric_units()
        values = {
            name: statistics.median_low([s["layers"][name] for s in traced])
            for name in units
            if name != "trace.overhead_ratio"
        }
        values["trace.overhead_ratio"] = _median(
            s["wall_s"] for s in traced
        ) / _median(s["wall_s"] for s in plain)
        for s in traced:
            wrapped, cached = s["reduced_homology_calls"]
            if wrapped != cached:
                problems.append(
                    f"reduced_homology: {wrapped} traced calls but "
                    f"{cached} cache lookups"
                )
    else:
        units = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
        values = {
            "setup_s": _median(s["setup_s"] for s in plain),
            "wall_s": _median(s["wall_s"] for s in plain),
            "latency_p50_ms": 1000 * _median(
                lat for s in plain for lat in s["latencies_s"]
            ),
            "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain),
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    line = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "trace": trace,
        "sweeps": len(plain) + len(traced),
        "per_sweep": [
            {
                k: s[k]
                for k in (
                    "setup_s", "raw_setup_s", "wall_s", "raw_wall_s",
                    "probe_median_s", "peak_rss_mb",
                )
            }
            for s in plain
        ],
        "failed_ratio": {"value": len(failures) / attempted, "unit": "1"},
        "metrics": metrics,
        "failures": failures[:20],
        "problems": problems,
        "provenance": {
            **_provenance(seed),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "host_probe_ms_before": probe_before,
            "host_probe_ms_after": _host_probe_ms(),
        },
    }
    return line, report


def smoke() -> int:
    spec = json.loads(SPEC.read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            line, _ = run(workload, answers.DEFAULT_SEED, 0, trace, smoke=True)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            good = line["correct"] and got == wanted[trace]
            ok &= good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}")
            if not good:
                print(json.dumps(line), file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=answers.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "momangle" / "cli.py").is_file():
        print(f"error: no momangle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        names = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
        if args.workload not in names:
            print(f"error: --workload must be one of {names}", file=sys.stderr)
            return 2
        line, report = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2))
    for metric, m in {**report["metrics"], "failed_ratio": report["failed_ratio"]}.items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(f"sweeps = {report['sweeps']}")
    print("provenance: " + json.dumps(report["provenance"]))
    for problem in report["problems"]:
        print("problem: " + problem)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
