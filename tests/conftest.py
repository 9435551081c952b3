import pytest


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    """Keep the suite hermetic w.r.t. the ambient REPRO_NO_CACHE setting.

    Tests that exercise the kill switch opt back in with
    ``monkeypatch.setenv("REPRO_NO_CACHE", "1")``.
    """
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


@pytest.fixture(autouse=True)
def _fresh_pool_per_test():
    """Shut the sweep driver's kept process pool after every test.

    A kept pool's workers are forks of an earlier moment of this
    process, so a test that monkeypatches ``ProcessPoolExecutor``,
    ``execute_point`` or the default cache must get a fresh fork.
    """
    yield
    from repro.experiments.parallel import shutdown_pool

    shutdown_pool()
