"""Session set-up: the tests never read or write the checkout's cache.

``RAMOPS_CACHE_DIR`` points at a fresh directory for the whole session, set
in the environment so that CLI subprocesses started by the tests inherit it.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("ramops-cache")
        mp.setenv("RAMOPS_CACHE_DIR", str(path))
        yield path
