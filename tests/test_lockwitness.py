"""Tests for repro.obs.lockwitness: the runtime half of the LX5xx tier.

The witness wraps locks in order-recording proxies and validates every
acquisition pair against a graph seeded with the static analyzer's
edges.  These tests drive the proxies directly with synthetic locks —
including a deliberate A->B / B->A inversion — then check the full
integration path (``MetaCommConfig(lock_witness=True)``) on a live
system under concurrent load.
"""

import threading

from repro.core import MetaComm, MetaCommConfig
from repro.obs.events import EventJournal, WITNESS_VIOLATION
from repro.obs.export import render_prometheus
from repro.obs.lockwitness import LockWitness, witness_system
from repro.obs.metrics import MetricsRegistry
from repro.schemas import PERSON_CLASSES


def make_pair(witness):
    a = witness.wrap("A._lock", threading.Lock())
    b = witness.wrap("B._lock", threading.Lock())
    return a, b


class TestOrderRecording:
    def test_consistent_order_records_edge_without_violation(self):
        witness = LockWitness()
        a, b = make_pair(witness)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert witness.observed_pairs() == [("A._lock", "B._lock")]
        assert witness.violations() == []
        assert witness.ok

    def test_reversed_order_is_a_violation(self):
        witness = LockWitness()
        a, b = make_pair(witness)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        (violation,) = witness.violations()
        assert violation.held == "B._lock"
        assert violation.acquired == "A._lock"
        assert violation.known_path == ("A._lock", "B._lock")
        assert violation.acquire_stack and violation.held_stack
        assert not witness.ok

    def test_violation_does_not_extend_the_graph(self):
        # The reversed pair must not become "allowed": a later thread
        # repeating the reversal is a fresh witness, not normal order.
        witness = LockWitness()
        a, b = make_pair(witness)
        with a, b:
            pass
        with b, a:
            pass
        with b, a:
            pass
        assert witness.observed_pairs() == [("A._lock", "B._lock")]
        assert len(witness.violations()) == 2

    def test_transitive_reversal_detected_through_path(self):
        # A->B and B->C are recorded; C->A contradicts the A->...->C path.
        witness = LockWitness()
        a = witness.wrap("A._lock", threading.Lock())
        b = witness.wrap("B._lock", threading.Lock())
        c = witness.wrap("C._lock", threading.Lock())
        with a, b:
            pass
        with b, c:
            pass
        with c, a:
            pass
        (violation,) = witness.violations()
        assert violation.known_path == ("A._lock", "B._lock", "C._lock")

    def test_static_seed_pairs_forbid_the_reverse_immediately(self):
        witness = LockWitness(static_order=[("A._lock", "B._lock")])
        a, b = make_pair(witness)
        # First-ever runtime acquisition already contradicts the static
        # graph — no prior observation needed.
        with b, a:
            pass
        assert len(witness.violations()) == 1
        # Static seeds are not "observed" edges.
        assert witness.observed_pairs() == []
        assert ("A._lock", "B._lock") in witness.pairs()

    def test_reentrant_acquire_records_no_edges(self):
        witness = LockWitness()
        r = witness.wrap("R._lock", threading.RLock())
        b = witness.wrap("B._lock", threading.Lock())
        with r:
            with r:  # re-entrant: must not create an R->R edge
                with b:
                    pass
        assert witness.observed_pairs() == [("R._lock", "B._lock")]
        assert witness.violations() == []

    def test_separate_threads_do_not_see_each_others_stacks(self):
        witness = LockWitness()
        a, b = make_pair(witness)
        a.acquire()  # held on the main thread only

        def other():
            with b:
                pass

        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        a.release()
        assert witness.observed_pairs() == []


class TestConditionModel:
    def test_wait_releases_the_lock_for_edge_purposes(self):
        witness = LockWitness()
        cond = witness.wrap("Q._cond", threading.Condition())
        other = witness.wrap("M._lock", threading.Lock())

        def waker():
            with cond:
                cond.notify_all()

        with cond:
            threading.Timer(0.01, waker).start()
            cond.wait(timeout=1.0)
            # Reacquired after the wait: edges resume from here.
            with other:
                pass
        assert ("Q._cond", "M._lock") in witness.observed_pairs()
        assert witness.violations() == []

    def test_foreign_lock_held_across_wait_still_edges(self):
        witness = LockWitness()
        outer = witness.wrap("Outer._lock", threading.Lock())
        cond = witness.wrap("Q._cond", threading.Condition())
        with outer:
            with cond:
                cond.wait(timeout=0.01)
        assert ("Outer._lock", "Q._cond") in witness.observed_pairs()

    def test_wait_for_suspends_like_wait(self):
        witness = LockWitness()
        cond = witness.wrap("Q._cond", threading.Condition())
        with cond:
            assert cond.wait_for(lambda: True, timeout=1.0)
        assert witness.violations() == []


class TestReporting:
    def test_violation_journals_event_with_both_stacks(self):
        journal = EventJournal()
        witness = LockWitness(journal=journal)
        a, b = make_pair(witness)
        with a, b:
            pass
        with b, a:
            pass
        (event,) = [
            e for e in journal.tail(10) if e.kind == WITNESS_VIOLATION
        ]
        assert event.attributes["held"] == "B._lock"
        assert event.attributes["acquired"] == "A._lock"
        assert "acquire" in event.attributes["acquire_stack"]
        assert event.attributes["held_stack"]

    def test_metrics_count_acquisitions_edges_and_violations(self):
        registry = MetricsRegistry()
        witness = LockWitness(registry=registry)
        a, b = make_pair(witness)
        with a, b:
            pass
        with b, a:
            pass
        text = render_prometheus(registry)
        assert (
            'metacomm_lockwitness_acquisitions_total{lock="A._lock"} 2'
            in text
        )
        assert "metacomm_lockwitness_violations_total 1" in text
        assert "metacomm_lockwitness_edges 1" in text

    def test_wrap_is_idempotent(self):
        witness = LockWitness()
        lock = threading.Lock()
        proxy = witness.wrap("A._lock", lock)
        assert witness.wrap("A._lock", proxy) is proxy

    def test_proxies_repr_and_locked(self):
        witness = LockWitness()
        lock = witness.wrap("A._lock", threading.Lock())
        assert "A._lock" in repr(lock)
        assert not lock.locked()
        with lock:
            assert lock.locked()


class TestSystemIntegration:
    def person(self, ext):
        return {
            "objectClass": list(PERSON_CLASSES),
            "cn": f"User {ext}",
            "sn": ext,
            "definityExtension": ext,
        }

    def test_config_flag_wires_the_witness(self):
        with MetaComm(MetaCommConfig(lock_witness=True)) as system:
            assert isinstance(system.lock_witness, LockWitness)
            system.connection().add(
                "cn=User 4100,o=Lucent", self.person("4100")
            )
            assert system.consistent()
            assert system.lock_witness.violations() == []
            text = system.metrics_text()
            assert "metacomm_lockwitness_acquisitions_total" in text

    def test_witness_defaults_off(self):
        with MetaComm(MetaCommConfig()) as system:
            assert system.lock_witness is None

    def test_concurrent_adds_on_lanes_stay_clean(self):
        config = MetaCommConfig(
            organizations=("Marketing", "Sales"),
            coordinator_lanes=2,
            lock_witness=True,
        )
        with MetaComm(config) as system:
            orgs = ("Marketing", "Sales")
            errors = []

            def add(index):
                ext = str(4100 + index)
                org = orgs[index % 2]
                dn = f"cn=User {ext},o={org},o=Lucent"
                try:
                    system.connection().add(dn, self.person(ext))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=add, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert system.consistent()
            assert system.lock_witness.violations() == []

    def test_witness_system_seeds_from_static_order(self):
        from repro.analysis.concur import static_lock_order

        with MetaComm(MetaCommConfig(lock_witness=True)) as system:
            pairs = set(system.lock_witness.pairs())
            assert set(static_lock_order()) <= pairs

    def test_witness_system_respects_prebuilt_witness(self):
        witness = LockWitness()
        with MetaComm(MetaCommConfig()) as system:
            assert witness_system(system, witness) is witness
