"""``bench/tracer.py`` swaps solver attributes by name (``driver.solve_subproblem``,
``inner.model_value``, the classmethod ``ModelCenter.from_oracle``, ...); a
refactor that drops one breaks ``bench/run.py --trace 1`` and nothing else."""

import sys
from pathlib import Path

import numpy as np

from nhota import RunConfig, driver, gen_phase_retrieval


def test_tracer_patches_the_solver_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import tracer

    tr, st = tracer.Tracer(), tracer.LayerStats()
    patches = tracer.layer_patches(tr, st)
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches._targets]
    problem, _, x0 = gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0)
    with patches:
        trace = driver.nhota_run(problem, x0, RunConfig(p=2, max_outer=3))
    assert trace.iterations() == 3
    assert tr.calls["inner.solve"] >= 3 and st.inner_iters > 0
    assert tr.calls["driver.try_step"] == 3 and tr.calls["taylor.from_oracle"] == 4
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
