import pytest
from hypothesis import HealthCheck, settings

import secstar as ss

settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def extremal_16():
    return ss.build_extremal(2, 16)


@pytest.fixture(scope="session")
def image_region():
    return ss.ImageRegion()


@pytest.fixture(scope="session")
def report_rows():
    # Small search count: the rows exercised by tests do not depend on it
    # (the designated sharp measures are always included).
    return ss.discrepancy_report(search_count=300)
