"""Every quick-scale check of ``nhota check`` runs here as its own test, plus
tests that the checks' oracles follow the solver they check."""

import pytest

from nhota import checks, driver
from nhota.driver import LineSearchFailure, RunConfig, nhota_run


@pytest.mark.parametrize("name", checks.check_names("quick"))
def test_named_check_passes(name):
    result = checks.run_check(name, "quick")
    print(f"{result.name}: {result.detail}")
    assert result.passed, result.detail


def test_recertify_run_checks_every_step_the_solver_takes():
    # the diag and phase instances behind certificate_soundness
    for problem, x0, p in checks._small_instances(30, seed=101):
        cfg = RunConfig(p=p, stop_stat=-1.0, max_outer=3)
        assert checks.recertify_run(problem, x0, cfg)[0] == nhota_run(problem, x0, cfg).iterations()


@pytest.mark.parametrize("exc, passed, detail", [
    (None, True, "0 on a clean run"),
    (LineSearchFailure("cut short"), False, "flagged 0 violations"),  # caught: run ends early
    (RuntimeError("crash"), False, "raised RuntimeError"),            # escapes the check
])
def test_fault_injection_restores_accept_test(monkeypatch, exc, passed, detail):
    original, real_step = driver.accept_test, driver.try_step

    def step(*args, **kwargs):
        if exc is not None and driver.accept_test is not original:
            raise exc  # inside the corrupted run
        return real_step(*args, **kwargs)

    monkeypatch.setattr(driver, "try_step", step)
    result = checks.run_check("fault_injection_catches_corruption")
    assert driver.accept_test is original
    assert result.passed == passed and detail in result.detail, result.detail
