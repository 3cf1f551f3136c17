import pytest

from cycsim.numtheory import make_group_spec


@pytest.fixture(scope="session")
def spec13():
    return make_group_spec(13)


@pytest.fixture(scope="session")
def spec5():
    return make_group_spec(5)


@pytest.fixture
def cleared_gate_caches():
    """Start from empty memoized gate builders, as a fresh process would; the
    returned function empties them again."""
    from cycsim import dlog_pipeline, driver

    def clear():
        for builder in (dlog_pipeline._kit, driver._instance):
            builder.cache_clear()

    clear()
    return clear


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="include slow large-prime checks")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; enable with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running large-prime checks")
