"""Every test starts with no memoised Selmer group, no kept search report and no sieved twin pairs.

compute_selmer keeps the groups of its last calls.  A test that patches the
oracle (selmer.local_verdict, localsolve._DEPTH_MARGIN) must reach it, not a
group an earlier test computed on the same instance.  The search keeps the
report of every hit it verifies; a test that patches search.verify_theorem
(failing_verify, a counting fake) must reach it, not a report an earlier
test kept.  The search also keeps each block of twin pairs it sieves; a test
that counts the blocks a search sieves must start from none.
"""

import pytest

from twinselmer import search
from twinselmer.selmer import compute_selmer


@pytest.fixture(autouse=True)
def _fresh_memos():
    compute_selmer.cache_clear()
    search._verify.cache_clear()
    search._twin_block.cache_clear()
