"""Every quick-scale check of ``nhota check`` runs here as its own test."""

import pytest

from nhota import checks


@pytest.mark.parametrize("name", checks.check_names("quick"))
def test_named_check_passes(name):
    result = checks.run_check(name, "quick")
    print(f"{result.name}: {result.detail}")
    assert result.passed, result.detail
