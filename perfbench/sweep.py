"""One sweep of a benchmark workload, in a fresh process.

Run by ``run.py``, once per sweep, so momangle's module-level caches start
empty each time.  The sweep imports momangle from the checkout's ``src``,
writes the seeded inputs as JSON files, then answers every request in a
closed loop with one client through ``momangle.cli.main([..., "--json"])``
in-process, and checks the answers afterwards.  Host-speed probes run
between requests (``hostspeed.py``); the times it reports are scaled by
them, and ``raw_wall_s`` keeps the unscaled sum.  It writes one JSON result
file; with ``--trace 1`` it also records spans and per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import momangle.cli  # noqa: E402

import answers  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, Probes  # noqa: E402
from tracing import Tracer  # noqa: E402


def write_inputs(requests, directory: Path) -> list[str]:
    """One JSON file per distinct complex; the path of each request's file."""
    directory.mkdir(parents=True)
    paths: dict[str, str] = {}
    for request in requests:
        if request.complex_json not in paths:
            path = directory / f"{len(paths)}.json"
            path.write_text(request.complex_json)
            paths[request.complex_json] = str(path)
    return [paths[request.complex_json] for request in requests]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``momangle.cli.main(argv)`` with stdout captured and stderr dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = momangle.cli.main(argv)
    return code, out.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sweep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    if not Path(momangle.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"momangle imported from {momangle.cli.__file__}", file=sys.stderr)
        return 2
    if args.smoke:
        requests = workloads.smoke(args.workload)
    else:
        requests = workloads.build(args.workload, args.seed, args.sweep)
    workdir = Path(args.result).with_suffix(".inputs")
    try:
        paths = write_inputs(requests, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        probes = Probes()
        setup_scale = REFERENCE_S / probes.take()

        results = []
        for rid, (request, path) in enumerate(zip(requests, paths)):
            if tracer:
                tracer.request = rid
            probes.take_if_due()
            start = time.perf_counter()
            code, stdout = call_cli(request.argv(path))
            results.append((start, time.perf_counter() - start, code, stdout))
        probes.take()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = answers.load_expected()
    failures = []
    for rid, (request, (_, _, code, stdout)) in enumerate(zip(requests, results)):
        why = answers.check(request, code, stdout, expected)
        if why:
            failures.append({"request": rid, "command": request.command, "why": why})
    raw = [lat for _, lat, _, _ in results]
    scaled = [lat * probes.scale(start) for start, lat, _, _ in results]
    result = {
        "ready": ready,
        "setup_scale": setup_scale,
        "raw_wall_s": sum(raw),
        "wall_s": sum(scaled),
        "latencies_s": scaled,
        "probe_median_s": statistics.median(probes.times),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(requests),
        "failures": failures,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["reduced_homology_calls"] = tracer.reduced_homology_calls()
        if args.spans:
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
