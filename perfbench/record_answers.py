"""Record expected.json: the exit code and stdout digest of every request of
the default seed, for every workload.

    python3 perfbench/record_answers.py

Run it only on a commit whose answers are known to be right: the stored
answers are what later commits must reproduce byte for byte.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from sweep import call_cli, write_inputs  # puts the checkout's src on sys.path

import answers
import workloads


def main() -> int:
    stored: dict[str, list] = {}
    for workload in workloads.WORKLOADS:
        requests = workloads.build(workload, answers.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=answers.EXPECTED_PATH.parent) as tmp:
            paths = write_inputs(requests, Path(tmp) / "inputs")
            for request, path in zip(requests, paths):
                code, stdout = call_cli(request.argv(path))
                why = answers.check(request, code, stdout, {})
                if why:
                    print(f"{workload} {request.command}: {why}", file=sys.stderr)
                    return 1
                stored[answers.request_key(request)] = answers.answer_digest(code, stdout)
        print(f"{workload}: {len(requests)} requests", file=sys.stderr)
    payload = {"seed": answers.DEFAULT_SEED, "answers": stored}
    answers.EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
