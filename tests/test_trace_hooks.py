"""The benchmark's tracer patches package names; a renamed one must fail here."""

from pathlib import Path

import pytest

from mixsep import pipeline, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_tracer_installs_and_restores(spans):
    originals = {
        name: getattr(solver, name)
        for name in ("minimize", "energy_terms", "apply_hamiltonians", "local_scale_bound")
    }
    with spans.installed(spans.Tracer()):
        assert solver.minimize is not originals["minimize"]
    for name, fn in originals.items():
        assert getattr(solver, name) is fn


def test_state_collector_wraps_pipeline_minimize(spans):
    original = pipeline.minimize
    with spans.collecting_states([]):
        assert pipeline.minimize is not original
    assert pipeline.minimize is original
