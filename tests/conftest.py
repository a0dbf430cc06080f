import pytest
from hypothesis import settings

from twistwidth import catalog, enumerate_all

# every @given test draws the same examples on every run, seeded from its own
# source, and a slow example is not failed for its time
settings.register_profile("seeded", deadline=None, derandomize=True)
settings.load_profile("seeded")


@pytest.fixture(scope="session")
def cat():
    return catalog()


@pytest.fixture(scope="session")
def dms_by_n():
    """Every delta-matroid on 1..4 canonical labels, enumerated once.

    The instances are shared by the whole session: once any certificate
    route has run on one, it keeps the certificate in its ``_cert`` slot,
    so a test that counts or patches the procedure certifies ``fresh(d)``."""
    return {n: list(enumerate_all(n)) for n in (1, 2, 3, 4)}
