import pytest

from bmhadamard.scheme import concrete_scheme
from bmhadamard.typeii import all_families


@pytest.fixture(scope="session")
def petersen():
    return concrete_scheme(4)


@pytest.fixture(scope="session")
def families_q4():
    """All 14 exact families at q = 4, keyed by (case, r_sign, branch)."""
    return {(fam.case, fam.r_sign, fam.branch): fam
            for fam in all_families(4)}
