"""One sha256 over the CLI's output on 30 small random instances.

Any change to what compute, audit or verify prints, or to their exit codes,
moves the digest.  A deliberate output change (a schema or CSV version bump)
records the new digest along with it.
"""

import contextlib
import hashlib
import io

from twinselmer import cli
from twinselmer.family import PHI, PHI_HAT

from helpers import random_instances

# the catalog ids of each epsilon
_IDS = {
    1: ("1.1", "1.2A", "1.2B", "1.2C", "1.3", "1.4", "1.4ex", "1.5A", "1.5B"),
    -1: ("1.6", "1.7A", "1.7B", "1.8", "1.9", "1.9ex", "1.10A", "1.10B"),
}
_DIGEST = "542acde96deea2dfdfbd75df825783db977396ccf078bdb4b7618878a06c0d97"


def _argvs(params):
    fam = ["--epsilon", str(params.epsilon), "--p", str(params.p), "--q", str(params.q),
           "--D", ",".join(map(str, params.d_primes))]
    for kind in (PHI, PHI_HAT):
        yield ["compute", *fam, "--kind", kind, "--format", "json", "--seed-table", "--elements"]
        yield ["compute", *fam, "--kind", kind, "--format", "csv", "--seed-table"]
        yield ["compute", *fam, "--kind", kind, "--format", "text", "--seed-table"]
    yield ["audit", *fam, "--format", "json"]
    for tid in _IDS[params.epsilon]:
        yield ["verify", *fam, "--theorem", tid, "--format", "json"]


def output_digest() -> str:
    h = hashlib.sha256()
    for params in random_instances(seed=18018, count=30, prime_bound=300, max_n=3):
        for argv in _argvs(params):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            h.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n".encode())
    return h.hexdigest()


def test_output_digest():
    assert output_digest() == _DIGEST
