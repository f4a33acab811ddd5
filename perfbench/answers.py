"""Answer check for benchmark requests.

Every answer gets the checks that need no stored answer: an exit code the
CLI contract allows for the subcommand, stdout that parses as JSON, no
``VIOLATION``, ``betti[0] == 1`` and, for sphere inputs, palindromic
Betti numbers.  Requests whose (command, input) pair is in
``expected.json`` must also reproduce the stored exit code and stdout
byte for byte (compared by SHA-256).  The stored answers cover every
request of the default seed; the fixed sphere-family inputs recur on
every seed, so they are compared on any seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# The seed whose requests expected.json covers in full.
DEFAULT_SEED = 0

# Exit codes the CLI contract allows on well-formed inputs under the vertex
# caps: hochster and analyze always succeed; a theorem check may also
# report an unmet hypothesis (1).  Exit 4 (a violated theorem) is never
# a right answer.
ALLOWED_EXIT = {"hochster": {0}, "analyze": {0}, "verify": {0, 1}}


def request_key(request) -> str:
    blob = json.dumps([list(request.command), request.complex_json])
    return hashlib.sha256(blob.encode()).hexdigest()


def answer_digest(code: int, stdout: str) -> list:
    return [code, hashlib.sha256(stdout.encode()).hexdigest()]


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, list]:
    with open(path) as fh:
        return json.load(fh)["answers"]


def check(request, code: int, stdout: str, expected: dict[str, list]) -> str | None:
    """Why the answer is wrong, or None when it passes every check."""
    if code not in ALLOWED_EXIT[request.command[0]]:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if "VIOLATION" in stdout:
        return "theorem violation"
    betti = payload.get("betti")
    if betti is not None:
        if betti[0] != 1:
            return f"betti[0] = {betti[0]}"
        if request.kind == "sphere" and betti != betti[::-1]:
            return "Betti numbers of a sphere are not palindromic"
    stored = expected.get(request_key(request))
    if stored is not None and answer_digest(code, stdout) != stored:
        return "differs from the stored answer"
    return None
