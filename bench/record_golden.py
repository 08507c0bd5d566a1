"""Record the golden answers of the default seeds into bench/golden.json.

    python3 bench/record_golden.py [workload ...]

Serves the first GOLDEN_REQUESTS requests of each named workload (default:
all) for seeds 0-9, requires every invariant check to pass, and stores a
digest of each answer (space-separated, one string per seed).  Workloads not named keep their recorded entries.
Re-record only when the workload definitions change, never to absorb a
changed answer of the package.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

from checks import GOLDEN_PATH, Checker, digest
from run import judge, load_package, timed
from workloads import WORKLOADS, blocks

DEFAULT_SEEDS = range(10)
# Somewhat more than one end-to-end run served at the recording commit.
GOLDEN_REQUESTS = {"sweep": 170, "wide": 170, "bigprime": 400, "search": 400}


def record(ts, workload: str, seed: int) -> str:
    checker = Checker(ts, workload, seed, golden={})
    stream = (request for block in blocks(workload, seed) for request in block)
    digests = []
    for request in islice(stream, GOLDEN_REQUESTS[workload]):
        _, raw, err = timed(ts, workload, request)
        ans, problems = judge(checker, None, workload, request, raw, err)
        if problems:
            raise SystemExit(f"{workload} seed {seed} {request!r}: {problems}")
        digests.append(digest(ans))
    return " ".join(digests)


def main(argv: list[str]) -> int:
    workloads = argv or list(WORKLOADS)
    ts = load_package()
    recorded = {}
    for workload in workloads:
        recorded[workload] = {str(seed): record(ts, workload, seed) for seed in DEFAULT_SEEDS}
        print(f"{workload}: {GOLDEN_REQUESTS[workload]} answers x {len(DEFAULT_SEEDS)} seeds")
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
    golden.update(recorded)
    GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
