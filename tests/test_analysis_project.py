"""Project-scope simlint passes: dims (DIM*), coroutine safety (CORO*),
engine parity (PAR001).

Two layers of coverage:

* synthetic fixtures — multi-file snippet projects fed through
  :func:`lint_sources`, one triggering and one passing case per behavior;
* seeded mutations — the *real* package sources with one defect planted
  (a swapped operand, a dropped counter update, a heap key without its
  tiebreaker), asserting the pass catches exactly that defect and stays
  silent on the clean tree.
"""

import os

import pytest

import repro
from repro.analysis import LintConfig, lint_sources

_PKG_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def run_rules(files, *rules):
    """Findings of the selected rules over a {path: source} project."""
    return lint_sources(dict(files), LintConfig(select=frozenset(rules)))


# ---------------------------------------------------------------------------
# dims — synthetic fixtures
# ---------------------------------------------------------------------------

def test_dim001_flags_convention_mismatch():
    files = {"pkg/mod.py": "def f(nbytes, delay):\n    return nbytes + delay\n"}
    findings = run_rules(files, "DIM001")
    assert [f.rule for f in findings] == ["DIM001"]
    assert "bytes" in findings[0].message and "seconds" in findings[0].message


def test_dim001_same_dimension_clean():
    files = {"pkg/mod.py": "def f(nbytes, delivered):\n    return nbytes + delivered\n"}
    assert run_rules(files, "DIM001") == []


def test_dim001_dimensionless_scaling_clean():
    files = {"pkg/mod.py": "def f(delay):\n    return 2.0 * delay + delay\n"}
    assert run_rules(files, "DIM001") == []


def test_dim002_flags_cross_dimension_compare():
    files = {"pkg/mod.py": "def f(nbytes, delay):\n    return nbytes < delay\n"}
    findings = run_rules(files, "DIM002")
    assert [f.rule for f in findings] == ["DIM002"]


def test_dim002_same_dimension_compare_clean():
    files = {"pkg/mod.py": "def f(t0, deadline):\n    return t0 < deadline\n"}
    assert run_rules(files, "DIM002") == []


def test_dim003_flags_return_contradicting_annotation():
    files = {
        "pkg/mod.py": (
            "def f(nbytes):  # simlint: dim[return=seconds]\n"
            "    return nbytes\n"
        )
    }
    findings = run_rules(files, "DIM003")
    assert [f.rule for f in findings] == ["DIM003"]


def test_dim003_matching_annotation_clean():
    files = {
        "pkg/mod.py": (
            "def f(nbytes):  # simlint: dim[return=bytes]\n"
            "    return nbytes\n"
        )
    }
    assert run_rules(files, "DIM003") == []


def test_dim004_flags_bytes_passed_for_seconds_param():
    files = {
        "pkg/mod.py": (
            "def wait(delay):\n"
            "    return delay\n"
            "def go(nbytes):\n"
            "    return wait(nbytes)\n"
        )
    }
    findings = run_rules(files, "DIM004")
    assert [f.rule for f in findings] == ["DIM004"]
    assert "`delay`" in findings[0].message


def test_dim004_matching_argument_clean():
    files = {
        "pkg/mod.py": (
            "def wait(delay):\n"
            "    return delay\n"
            "def go(timeout):\n"
            "    return wait(timeout)\n"
        )
    }
    assert run_rules(files, "DIM004") == []


def test_dims_propagate_across_modules():
    # a.make_delay is summarized as seconds via its annotation; adding its
    # result to bytes in another module must flag.
    files = {
        "pkg/a.py": (
            "def make_delay(n):  # simlint: dim[return=seconds]\n"
            "    return n * 1e-6\n"
        ),
        "pkg/b.py": (
            "from pkg.a import make_delay\n"
            "def f(nbytes):\n"
            "    return nbytes + make_delay(3)\n"
        ),
    }
    findings = run_rules(files, "DIM001")
    assert [f.rule for f in findings] == ["DIM001"]
    assert findings[0].path == "pkg/b.py"


def test_dims_respect_suppression():
    files = {
        "pkg/mod.py": (
            "def f(nbytes, delay):\n"
            "    return nbytes + delay  # simlint: ignore[DIM001] -- fixture\n"
        )
    }
    assert run_rules(files, "DIM001") == []


# ---------------------------------------------------------------------------
# coroutine safety — synthetic fixtures
# ---------------------------------------------------------------------------

def test_coro001_flags_snapshot_used_after_yield():
    files = {
        "pkg/mod.py": (
            "def proc(self):\n"
            "    n = len(self.queue)\n"
            "    yield self.ev\n"
            "    self.consume(n)\n"
        )
    }
    findings = run_rules(files, "CORO001")
    assert [f.rule for f in findings] == ["CORO001"]


def test_coro001_reread_after_yield_clean():
    files = {
        "pkg/mod.py": (
            "def proc(self):\n"
            "    yield self.ev\n"
            "    n = len(self.queue)\n"
            "    self.consume(n)\n"
        )
    }
    assert run_rules(files, "CORO001") == []


def test_coro001_flags_snapshot_consumed_inside_yielding_loop():
    files = {
        "pkg/mod.py": (
            "def proc(self):\n"
            "    pending = len(self.queue)\n"
            "    for _ in range(8):\n"
            "        yield self.ev\n"
            "        self.consume(pending)\n"
        )
    }
    findings = run_rules(files, "CORO001")
    assert [f.rule for f in findings] == ["CORO001"]


def test_coro001_refreshed_inside_loop_clean():
    files = {
        "pkg/mod.py": (
            "def proc(self):\n"
            "    for _ in range(8):\n"
            "        yield self.ev\n"
            "        pending = len(self.queue)\n"
            "        self.consume(pending)\n"
        )
    }
    assert run_rules(files, "CORO001") == []


def test_coro002_flags_heap_push_without_tiebreaker():
    files = {
        "pkg/mod.py": (
            "import heapq\n"
            "def sched(heap, t, event):\n"
            "    heapq.heappush(heap, (t, event))\n"
        )
    }
    findings = run_rules(files, "CORO002")
    assert [f.rule for f in findings] == ["CORO002"]


def test_coro002_tiebreaker_element_clean():
    files = {
        "pkg/mod.py": (
            "import heapq\n"
            "def sched(heap, t, seq, event):\n"
            "    heapq.heappush(heap, (t, seq, event))\n"
        )
    }
    assert run_rules(files, "CORO002") == []


def test_coro002_sees_through_local_alias():
    files = {
        "pkg/mod.py": (
            "import heapq\n"
            "push = heapq.heappush\n"
            "def sched(heap, t, event):\n"
            "    push(heap, (t, event))\n"
        )
    }
    findings = run_rules(files, "CORO002")
    assert [f.rule for f in findings] == ["CORO002"]


def test_coro003_flags_module_global_stream():
    files = {
        "pkg/mod.py": (
            "from repro.rng import derive\n"
            "SHARED_RNG = derive(0, 'global')\n"
        )
    }
    findings = run_rules(files, "CORO003")
    assert [f.rule for f in findings] == ["CORO003"]


def test_coro003_per_owner_factory_clean():
    files = {
        "pkg/mod.py": (
            "from repro.rng import derive\n"
            "def make(seed):\n"
            "    return derive(seed, 'tenant')\n"
        )
    }
    assert run_rules(files, "CORO003") == []


def test_coro003_traces_transitive_derive_returner():
    files = {
        "pkg/mod.py": (
            "from repro.rng import derive\n"
            "def fresh(seed):\n"
            "    return derive(seed, 'x')\n"
            "STREAM = fresh(3)\n"
        )
    }
    findings = run_rules(files, "CORO003")
    assert [f.rule for f in findings] == ["CORO003"]


def test_coro003_flags_rng_handed_to_foreign_attribute():
    files = {
        "pkg/mod.py": (
            "def wire(dev, rng):\n"
            "    dev.rng = rng\n"
        )
    }
    findings = run_rules(files, "CORO003")
    assert [f.rule for f in findings] == ["CORO003"]


def test_coro003_own_attribute_clean():
    files = {
        "pkg/mod.py": (
            "class Dev:\n"
            "    def __init__(self, rng):\n"
            "        self.rng = rng\n"
        )
    }
    assert run_rules(files, "CORO003") == []


# ---------------------------------------------------------------------------
# engine parity — synthetic fixtures
# ---------------------------------------------------------------------------

def test_par001_no_anchors_no_findings():
    # trees without the executor/replay anchors must not produce noise
    files = {"pkg/mod.py": "def f():\n    return 1\n"}
    assert run_rules(files, "PAR001") == []


# ---------------------------------------------------------------------------
# seeded mutations on the real tree
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_tree():
    """{path: source} for every module of the installed repro package."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(_PKG_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for fn in filenames:
            if fn.endswith(".py"):
                full = os.path.join(dirpath, fn)
                with open(full) as fh:
                    files[full] = fh.read()
    return files


def _mutate(files, rel, old, new):
    path = os.path.join(_PKG_ROOT, rel)
    mutated = dict(files)
    assert old in mutated[path], f"mutation anchor vanished from {rel}: {old!r}"
    mutated[path] = mutated[path].replace(old, new, 1)
    return mutated


def test_clean_tree_has_zero_project_findings(real_tree):
    assert lint_sources(dict(real_tree), LintConfig()) == []


def test_mutation_pathmodel_bytes_for_seconds_caught(real_tree):
    mutated = _mutate(
        real_tree, "swap/pathmodel.py",
        "sys_time = fault_time + t_in + 0.5 * t_out",
        "sys_time = fault_time + bytes_in + 0.5 * t_out",
    )
    findings = lint_sources(mutated, LintConfig(select=frozenset({"DIM001"})))
    assert [f.rule for f in findings] == ["DIM001"]
    assert findings[0].path.endswith("swap/pathmodel.py")


def test_mutation_replay_dropped_counter_caught(real_tree):
    # `_book_counters` books counters for both the clean batch entry point
    # and the hybrid chunk booking, so the seam sub-check sees both sides
    # drop the counter alike; the clean engine's diff against the event
    # surface is the one comparison left to break
    mutated = _mutate(
        real_tree, "swap/replay.py",
        "res.clean_drops += cls.clean_drops", "pass",
    )
    findings = lint_sources(mutated, LintConfig(select=frozenset({"PAR001"})))
    assert len(findings) == 1
    assert "clean_drops" in findings[0].message
    assert findings[0].path.endswith("swap/replay.py")


def test_mutation_hybrid_dropped_counter_caught(real_tree):
    """The hybrid planner's batch-segment booking is held to the clean
    batch engine's: a segment that stops booking its chunk's counters is
    a seam-parity break for each of them, even though the hybrid entry
    still reaches every counter through its event segments."""
    mutated = _mutate(
        real_tree, "swap/plan.py",
        "_book_counters(res, n_chunk, n_chunk - (a1 - a_pos), span)", "pass",
    )
    findings = lint_sources(mutated, LintConfig(select=frozenset({"PAR001"})))
    assert len(findings) == 8
    assert all(f.path.endswith("swap/plan.py") for f in findings)
    assert {f.message.split("`")[1] for f in findings} == {
        "accesses", "file_skips", "hits", "cold_allocations", "faults",
        "swap_ins", "swap_outs", "clean_drops"}


def test_mutation_heap_key_without_tiebreaker_caught(real_tree):
    mutated = _mutate(
        real_tree, "simcore/engine.py",
        "heapq.heappush(self._heap, (self._now + delay, self._seq, event))",
        "heapq.heappush(self._heap, (self._now + delay, event))",
    )
    findings = lint_sources(mutated, LintConfig(select=frozenset({"CORO002"})))
    assert len(findings) == 1
    assert findings[0].path.endswith("simcore/engine.py")
