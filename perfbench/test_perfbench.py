"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sweep import call_cli  # noqa: E402  (first: puts the checkout's src on sys.path)

import answers  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def test_smoke_reports_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 6


def test_wrong_stored_answer_counts_as_failure(tmp_path):
    (request,) = workloads.smoke("walk")
    path = tmp_path / "k.json"
    path.write_text(request.complex_json)
    code, stdout = call_cli(request.argv(str(path)))
    key = answers.request_key(request)
    right = {key: answers.answer_digest(code, stdout)}
    wrong = {key: answers.answer_digest(code, stdout + " ")}
    assert answers.check(request, code, stdout, right) is None
    assert answers.check(request, code, stdout, wrong) == "differs from the stored answer"
    assert answers.check(request, 4, stdout, right) == "exit code 4"


def test_stored_answers_cover_the_default_seed():
    stored = answers.load_expected()
    for workload in workloads.WORKLOADS:
        for request in workloads.build(workload, answers.DEFAULT_SEED):
            assert answers.request_key(request) in stored


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_request_is_scaled_by_the_probes_around_it():
    probes = hostspeed.Probes()
    probes.ends = [1.0, 2.0, 3.0]
    probes.times = [0.010, 0.014, 0.002]
    ref = hostspeed.REFERENCE_S
    assert probes.scale(1.5) == ref / 0.012
    assert probes.scale(2.0) == ref / 0.008
    assert 0 < hostspeed.probe_s() < 1
