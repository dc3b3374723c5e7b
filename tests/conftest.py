import pytest


@pytest.fixture(scope="session", autouse=True)
def overlap_matrix_cache_home(tmp_path_factory):
    """Point the CLI's overlap-matrix cache, in this process and every CLI child, at a temporary directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
        yield
