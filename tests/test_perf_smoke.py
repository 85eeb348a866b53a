"""``benchmarks/perf_smoke.py`` edge cases that need no timing."""

import importlib.util
from pathlib import Path

import pytest

__all__: list[str] = []

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_smoke.py"


@pytest.fixture()
def perf_smoke(monkeypatch):
    # the replay suites switch the classification cache off process-wide
    monkeypatch.setenv("REPRO_CACHE", "0")
    spec = importlib.util.spec_from_file_location("perf_smoke", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_suite_too_small_to_fault_stops_with_one_line(perf_smoke, tmp_path,
                                                             monkeypatch):
    """At 20 k accesses the clean uniform run never faults, so the injected
    rows have no span to place fault windows in: the suite stops with a
    one-line error naming that, before any window is built (a zero-length
    window raises ``ConfigurationError``), and writes no report.  The
    clean-row benchmark that runs first is stubbed out."""
    monkeypatch.setattr(perf_smoke, "bench_replay", lambda accesses, repeats: {"workloads": {}})
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        perf_smoke.main(["--suite", "replay", "--accesses", "20000", "--repeats", "1",
                         "--out", str(out)])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert "never faults" in message and "20000 accesses" in message
    assert not out.exists()
