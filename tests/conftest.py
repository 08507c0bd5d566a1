"""Every test starts with no memoised Selmer group.

compute_selmer keeps the groups of its last calls.  A test that patches the
oracle (selmer.local_verdict, localsolve._DEPTH_MARGIN) must reach it, not a
group an earlier test computed on the same instance.
"""

import pytest

from twinselmer.selmer import compute_selmer


@pytest.fixture(autouse=True)
def _fresh_selmer_memo():
    compute_selmer.cache_clear()
