import pytest

from sdrkit.acceptance import AcceptanceContext


@pytest.fixture(scope="session")
def actx():
    """One shared context so the big group closures happen once per run."""
    return AcceptanceContext()


@pytest.fixture(scope="session")
def sp3(actx):
    return actx.sp3()


@pytest.fixture(scope="session")
def o3(actx):
    return actx.o3()


@pytest.fixture(scope="session")
def order6_scan():
    """The order-6 scan of Sp_6(F2), seeded from O+(6, 2), run once."""
    from sdrkit.matgroups import order6_uniqueness_scan

    return order6_uniqueness_scan()
