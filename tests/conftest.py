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
    """The full order-6 sweep of Sp_6(F2), run once for the extended tests."""
    from sdrkit.matgroups import order6_uniqueness_scan

    return order6_uniqueness_scan()
