"""The benchmark's traced run patches library names by string; a rename must fail here."""

from pathlib import Path


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import sweeps

    for module, attribute, span, _ in sweeps.trace_sites():
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute, span)
