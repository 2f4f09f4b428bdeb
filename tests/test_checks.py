import pytest

from cavityqed.checks import CHECKS


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_invariant_check_passes(name):
    ok, detail = CHECKS[name]()
    assert ok, f"{name}: {detail}"
