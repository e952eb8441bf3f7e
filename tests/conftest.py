import pytest

import tauthom.groups


@pytest.fixture
def fresh_memos():
    """Empty the process-wide CyclicSum and Hom/Ext memos before and after
    a test, so code the test patches really runs and leaves no entry behind."""
    memos = (tauthom.groups._cyclic_sum, tauthom.groups._functor)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
