"""Unit tests for the runtime lock watchdog
(:mod:`repro.analysis.runtime`): tracking, online cycle detection,
patching hygiene, report merge and validation."""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.runtime import (
    LockWatchdog,
    active_watchdog,
    load_runtime_report,
    watch_locks,
)
from repro.analysis.runtime import watchdog as watchdog_module

REPO_ROOT = str(Path(__file__).resolve().parents[2])


class TestTracking:
    def test_records_locks_and_edges(self):
        with watch_locks(root=REPO_ROOT) as wd:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
        report = wd.report()
        assert len(report["locks"]) == 2
        for site, entry in report["locks"].items():
            assert site.startswith("tests/analysis/test_runtime_watchdog.py:")
            assert entry["kind"] == "Lock"
            assert entry["count"] == 1
        assert len(report["edges"]) == 1
        (edge,) = report["edges"]
        assert edge["count"] == 1
        assert report["cycles"] == []
        assert report["anomalies"] == []

    def test_opposite_orders_detected_as_cycle_online(self):
        with watch_locks(root=REPO_ROOT) as wd:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        report = wd.report()
        assert len(report["edges"]) == 2
        assert len(report["cycles"]) == 1
        assert set(report["cycles"][0]) == set(report["locks"])

    def test_rlock_reentry_produces_no_self_edge(self):
        with watch_locks(root=REPO_ROOT) as wd:
            r = threading.RLock()
            with r:
                with r:
                    pass
        report = wd.report()
        assert report["edges"] == []
        assert report["cycles"] == []

    def test_foreign_creation_site_is_untracked(self):
        with watch_locks(root=REPO_ROOT) as wd:
            make = eval("lambda: threading.Lock()")  # frame file is "<string>"
            lock = make()
            with lock:
                pass
        assert wd.report()["locks"] == {}
        # The foreign lock is a plain stdlib lock, not a wrapper.
        assert not isinstance(lock, watchdog_module._TrackedLock)

    def test_cross_thread_edges_accumulate(self):
        with watch_locks(root=REPO_ROOT) as wd:
            a = threading.Lock()
            b = threading.Lock()

            def worker():
                with a:
                    with b:
                        pass

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        (edge,) = wd.report()["edges"]
        assert edge["count"] == 4


class TestAnomalies:
    def test_held_too_long_recorded(self):
        with watch_locks(held_warn_s=0.05, root=REPO_ROOT) as wd:
            lock = threading.Lock()
            with lock:
                time.sleep(0.12)
        anomalies = wd.report()["anomalies"]
        assert any(a["type"] == "held_too_long" for a in anomalies)

    def test_condition_wait_does_not_count_as_held(self):
        # wait() drops the lock; the watchdog must suspend held-time
        # accounting or every bounded wait would trip held_too_long.
        with watch_locks(held_warn_s=0.05, root=REPO_ROOT) as wd:
            cond = threading.Condition()
            with cond:
                cond.wait(timeout=0.15)  # repro: noqa[LOCK-LEAK] — a timed wait nothing notifies, by design
        assert wd.report()["anomalies"] == []

    def test_wait_resumes_held_tracking(self):
        # After a wait returns, the condition is held again: a lock
        # acquired next must be ordered under it.
        with watch_locks(root=REPO_ROOT) as wd:
            cond = threading.Condition()
            inner = threading.Lock()
            with cond:
                cond.wait(timeout=0.01)  # repro: noqa[LOCK-LEAK] — a timed wait nothing notifies, by design
                with inner:
                    pass
        (edge,) = wd.report()["edges"]
        assert "Condition" == wd.report()["locks"][edge["from"]]["kind"]
        assert "Lock" == wd.report()["locks"][edge["to"]]["kind"]


class TestPatching:
    def test_install_uninstall_restores_threading(self):
        orig_lock = threading.Lock
        orig_rlock = threading.RLock
        orig_condition = threading.Condition
        with watch_locks(root=REPO_ROOT):
            assert threading.Lock is not orig_lock
            assert threading.RLock is not orig_rlock
            assert threading.Condition is not orig_condition
        assert threading.Lock is orig_lock
        assert threading.RLock is orig_rlock
        assert threading.Condition is orig_condition

    def test_from_import_bindings_are_patched_and_restored(self):
        # repro.obs.live.slo does `from threading import Lock`; its
        # private binding must be swapped too, or its locks escape.
        from repro.obs.live import slo

        orig = slo.Lock
        with watch_locks(root=REPO_ROOT):
            assert slo.Lock is not orig
        assert slo.Lock is orig

    def test_second_install_refused(self):
        with watch_locks(root=REPO_ROOT):
            with pytest.raises(RuntimeError, match="already installed"):
                LockWatchdog().install()

    def test_active_watchdog_lifecycle(self):
        assert active_watchdog() is None
        with watch_locks(root=REPO_ROOT) as wd:
            assert active_watchdog() is wd
        assert active_watchdog() is None

    def test_locks_made_before_install_are_untouched(self):
        before = threading.Lock()
        with watch_locks(root=REPO_ROOT) as wd:
            with before:
                pass
        assert wd.report()["locks"] == {}

    def test_module_locks_made_before_install_are_tracked_at_their_definition(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "lockmod.py"
        path.write_text(
            "import threading\n\n_A = threading.Lock()\n_B = threading.RLock()\n"
            "_IDLE = threading.Lock()\n"
        )
        spec = importlib.util.spec_from_file_location("lockmod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setitem(sys.modules, "lockmod", module)
        raw = (module._A, module._B)
        with watch_locks(root=str(tmp_path)) as wd:
            with module._A:
                with module._B:
                    pass
        report = wd.report()
        # Listed once acquired: _IDLE was never exercised.
        assert report["locks"] == {
            "lockmod.py:3": {"kind": "Lock", "count": 1},
            "lockmod.py:4": {"kind": "RLock", "count": 1},
        }
        assert report["edges"] == [{"from": "lockmod.py:3", "to": "lockmod.py:4", "count": 1}]
        assert (module._A, module._B) == raw


class TestDumpAndLoad:
    def test_dump_roundtrips_through_loader(self, tmp_path):
        path = tmp_path / "lock_order.json"
        with watch_locks(root=REPO_ROOT) as wd:
            a = threading.Lock()
            with a:
                pass
        wd.dump(path)
        report = load_runtime_report(path)
        assert report["version"] == 1
        assert len(report["locks"]) == 1

    def test_merge_unions_edges_and_sums_counts(self, tmp_path):
        path = tmp_path / "lock_order.json"
        first = {
            "version": 1,
            "locks": {"src/a.py:1": {"kind": "Lock", "count": 2}},
            "edges": [{"from": "src/a.py:1", "to": "src/b.py:1", "count": 3}],
            "cycles": [["src/a.py:1", "src/b.py:1", "src/a.py:1"]],
            "anomalies": [],
        }
        path.write_text(json.dumps(first))

        with watch_locks(root=REPO_ROOT) as wd:
            a = threading.Lock()
            with a:
                pass
        merged = wd.dump(path, merge=True)

        assert merged["locks"]["src/a.py:1"]["count"] == 2
        assert len(merged["locks"]) == 2  # prior site + this run's lock
        assert merged["edges"][0]["count"] == 3
        assert len(merged["cycles"]) == 1
        on_disk = load_runtime_report(path)
        assert on_disk == merged

    def test_merge_false_overwrites(self, tmp_path):
        path = tmp_path / "lock_order.json"
        path.write_text(json.dumps({"version": 1, "locks": {"x:1": {}}, "edges": []}))
        with watch_locks(root=REPO_ROOT) as wd:
            pass
        report = wd.dump(path, merge=False)
        assert report["locks"] == {}
        assert load_runtime_report(path)["locks"] == {}

    def test_loader_rejects_non_report(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a report"}')
        with pytest.raises(ValueError, match="not a lock-order report"):
            load_runtime_report(path)

    def test_loader_rejects_malformed_edge(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "locks": {}, "edges": [{"from": "x"}]}))
        with pytest.raises(ValueError, match="malformed edge"):
            load_runtime_report(path)
