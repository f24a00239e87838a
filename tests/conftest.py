"""Every test starts with an empty memo of subset-sum measures, so that no
test's code path depends on which tests ran before it."""

import pytest

from horoindex import spaces


@pytest.fixture(autouse=True)
def empty_memo():
    spaces.memo_clear()
