"""Workloads, the closed-loop clients and the correctness oracle.

Every call goes through the public API a user of MetaComm has: the WBA
(:class:`repro.wba.WebAdmin`), LDAP connections through LTAP, the OSSI
craft terminal and the consistency auditor.  Configuration sets only
``pbxes``, ``coordinator_lanes``, ``device_links``, ``observability`` and
``lexpress_mode`` (pinned to ``compiled`` so a later change of default
does not move the numbers), plus the simulated link latency of each
device on ``slow_links``.
"""

from __future__ import annotations

import bisect
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from inputs import PREFIXES, SUFFIX, Inputs, Model, Op

#: Simulated round-trip of one command on a serial craft channel.
LINK_LATENCY = 0.002
#: Latency classes: a WBA write, a craft-terminal DDU, an LTAP read and
#: one consistency-audit cycle.
KINDS = ("update", "ddu", "read", "audit")


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    #: Closed-loop client threads; client ``c`` owns every
    #: ``clients``-th PBX prefix, so clients never touch the same entry.
    clients: int
    #: The kind of op whose update sequences the per-layer ledger divides by.
    write_kind: str
    #: Untraced ops per second on the reference machine (2 vCPUs,
    #: Python 3.11).  Sizes the fixed op list of a traced run, which must
    #: be the same every time for its counts to repeat exactly.
    nominal_rate: int
    #: Fixed-size probes of the op kinds the main mix lacks, run before
    #: the main loop so every workload reports every end-to-end metric.
    probes: dict = field(default_factory=dict)
    lanes: int = 1
    #: Event-driven device links, every device on a serial craft channel.
    slow_links: bool = False
    stations_per_pbx: int = 150
    #: ``craft_ddu`` runs one audit cycle after every this many DDUs.
    audit_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wba_churn",
            clients=1,
            write_kind="update",
            nominal_rate=450,
            probes={"ddu": 1000, "read": 1200, "audit": 18},
        ),
        Workload(
            "craft_ddu",
            clients=1,
            write_kind="ddu",
            nominal_rate=400,
            probes={"update": 2000},
            # The auditor's own schedule: one cycle after every 0.5 s
            # (MetaCommConfig.audit_interval) of traffic, and a DDU with
            # its reads takes about 5.5 ms at the reference speed.
            audit_every=90,
        ),
        Workload(
            "slow_links",
            clients=2,
            write_kind="update",
            nominal_rate=200,
            probes={"ddu": 600, "read": 1200, "audit": 18},
            lanes=2,
            slow_links=True,
        ),
    )
}


# -- machine speed ---------------------------------------------------------------


def _calibration_loop() -> int:
    """Fixed interpreter work: small-dict lookups and integer arithmetic.
    Of the loops tried, its time tracked the program's own op latencies
    most closely (log-log slope 0.93-0.99) as the speed of a shared
    2-vCPU Xeon VM drifted.  Never change it: it defines the reference
    speed every CPU-bound timing is scaled to."""
    table = {"a": 1, "b": 2, "c": 3}
    total = 0
    for _ in range(1200):
        total += table["a"] + table.get("b", 0)
        total &= 0xFFFF
    return total


class Pace:
    """Machine-speed probe interleaved with one thread's work.

    The CPU speed of a shared VM drifts by up to 2x within seconds and
    between runs.  Every ``EVERY`` seconds, between two ops, the
    thread runs :func:`_calibration_loop` and notes its CPU time.  A
    timing of ``wall`` seconds, during which the whole process spent
    ``cpu`` seconds of CPU (whichever thread spent it), started at
    ``t``, is reported at the reference speed as
    ``wall - cpu + cpu * scale(t)``: CPU time stretches with a slow
    machine, the rest (link sleeps, idle waits) is kept as measured.
    With the GIL the process's CPU time in an interval hardly exceeds
    the interval; ``cpu`` is capped at ``wall`` all the same."""

    #: CPU seconds one calibration loop takes at the reference speed (the
    #: fast state of a shared 2-vCPU Xeon VM, Python 3.11).
    REFERENCE = 115e-6
    EVERY = 0.02
    #: Calibration samples on each side of ``t`` that ``scale`` uses.
    SPAN = 10

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self.EVERY:
            cpu = time.thread_time()
            _calibration_loop()
            self.durations.append(time.thread_time() - cpu)
            self.times.append(now)
            self._last = time.perf_counter()

    def scale(self, t: float) -> float:
        i = bisect.bisect_left(self.times, t)
        window = self.durations[max(0, i - self.SPAN): i + self.SPAN + 1]
        return self.REFERENCE / statistics.median(window) if window else 1.0

    def speed(self) -> float:
        """The median scale over the whole phase."""
        return self.REFERENCE / statistics.median(self.durations) if self.durations else 1.0

    def at_reference(self, start: float, wall: float, cpu: float) -> float:
        cpu = min(cpu, wall)
        return wall - cpu + cpu * self.scale(start)


# -- the system ----------------------------------------------------------------


def build_system(workload: Workload):
    from repro.core import MetaComm, MetaCommConfig, PbxConfig

    return MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{p}", (p,)) for p in PREFIXES],
            coordinator_lanes=workload.lanes,
            device_links=workload.slow_links,
            observability=True,
            lexpress_mode="compiled",
        )
    )


def preload(system, inputs: Inputs, pace: Pace) -> None:
    """Create the population through LTAP adds (never through sync)."""
    from repro.schemas.integrated import PERSON_CLASSES

    conn = system.connection()
    classes = list(PERSON_CLASSES)
    for person in inputs.preload:
        pace.tick()
        conn.add(
            person.dn,
            {
                "objectClass": classes,
                "cn": person.cn,
                "sn": person.surname,
                "definityExtension": person.ext,
                "definityRoom": person.room,
                "definityCOS": person.cos,
            },
        )


def slow_down_links(system) -> None:
    """Serial craft channels: 2 commands per PBX op, 3 per messaging op."""
    for pbx in system.pbxes.values():
        pbx.link_latency, pbx.link_serial, pbx.link_commands = LINK_LATENCY, True, 2
    messaging = system.messaging
    messaging.link_latency, messaging.link_serial, messaging.link_commands = (
        LINK_LATENCY, True, 3,
    )


def set_up(workload: Workload, inputs: Inputs):
    """One timed set-up: construction plus preload.  Returns the system,
    the measured seconds and the seconds at the reference speed (the
    calibration loops run during preload count in neither)."""
    pace = Pace()
    start, cpu = time.perf_counter(), time.process_time()
    system = build_system(workload)
    preload(system, inputs, pace)
    spent = sum(pace.durations)
    wall = time.perf_counter() - start - spent
    cpu = min(wall, time.process_time() - cpu - spent)
    if workload.slow_links:
        slow_down_links(system)
    return system, wall, wall - cpu + cpu * pace.speed()


class Watch:
    """What the oracle needs to observe while the system runs: error-log
    records and the serials of accepted update sequences."""

    def __init__(self, system) -> None:
        from repro.obs.events import UPDATE_ACCEPTED

        self.errors: list = []
        self.serials: list[int] = []
        system.error_log.add_admin_listener(self.errors.append)

        def on_event(event, kind=UPDATE_ACCEPTED, serials=self.serials):
            if event.kind == kind:
                serials.append(event.attributes.get("serial"))

        system.obs.journal.subscribe(on_event)


# -- one client ------------------------------------------------------------------


class Client:
    """One operator session: a WBA, an LDAP connection and the craft
    terminals of every switch."""

    def __init__(self, system) -> None:
        from repro.ldap.protocol import Scope
        from repro.wba import WebAdmin

        self.system = system
        self.wba = WebAdmin(system)
        self.conn = system.connection()
        self.terminals = {p: system.terminal(f"pbx-{p}") for p in PREFIXES}
        self.sub = Scope.SUB
        self.actions = {
            "create": self.create,
            "edit": self.edit,
            "delete": self.delete,
            "checkin": self.checkin,
            "checkout": self.checkout,
            "ddu": self.ddu,
            "by_ext": self.by_ext,
            "by_room": self.by_room,
            "form": self.form,
            "audit": self.audit,
        }
        self.problems: list[str] = []
        self.pace = Pace()

    def create(self, op: Op) -> bool:
        return self.wba.create_user(None, **op.args[0]) == op.expect

    def edit(self, op: Op) -> bool:
        self.wba.update_user(op.args[0], **op.args[1])
        return True

    def delete(self, op: Op) -> bool:
        self.wba.delete_user(op.args[0])
        return True

    def checkin(self, op: Op) -> bool:
        self.wba.hotel_checkin(*op.args)
        return True

    def checkout(self, op: Op) -> bool:
        self.wba.hotel_checkout(op.args[0])
        return True

    def ddu(self, op: Op) -> bool:
        prefix, command = op.args
        return self.terminals[prefix].execute(command).ok

    def by_ext(self, op: Op) -> bool:
        hits = self.conn.search(
            SUFFIX, self.sub, f"(definityExtension={op.args[0]})"
        )
        return len(hits) == 1 and hits[0].first("definityRoom") == op.expect

    def by_room(self, op: Op) -> bool:
        hits = self.conn.search(SUFFIX, self.sub, f"(definityRoom={op.args[0]})")
        return len(hits) == op.expect

    def form(self, op: Op) -> bool:
        form = self.wba.user_form(op.args[0])
        return (form["extension"], form["room"]) == op.expect

    def audit(self, op: Op) -> bool:
        return self.system.auditor.run_cycle().ok

    def run(self, ops: list[Op], deadline: float | None, recorder=None,
            first_id: int = 0) -> tuple[int, int, list[tuple]]:
        """Closed loop: each op starts when the previous one returned.
        Stops at ``deadline`` (perf_counter) or the end of ``ops``.
        Returns (completed, failed, samples); a sample is (kind, start,
        wall seconds, CPU seconds of the whole process)."""
        perf, cpu_time = time.perf_counter, time.process_time
        actions, pace = self.actions, self.pace
        samples = []
        failed = 0
        for op in ops:
            if deadline is not None and perf() >= deadline:
                break
            pace.tick()
            frame = recorder.begin_op(first_id + len(samples), op.kind) if recorder else None
            start, cpu = perf(), cpu_time()
            try:
                ok = actions[op.action](op)
            except Exception as exc:  # a failed op, counted and reported
                ok = False
                if len(self.problems) < 5:
                    self.problems.append(f"{op.action} {op.args!r}: {exc!r}")
            else:
                if not ok and len(self.problems) < 5:
                    self.problems.append(f"{op.action} {op.args!r}: wrong answer")
            samples.append((op.kind, start, perf() - start, cpu_time() - cpu))
            if frame is not None:
                recorder.end_op(frame)
            failed += not ok
        return len(samples), failed, samples


@dataclass
class Outcome:
    """What one closed-loop phase produced."""

    done: list[int]
    failed: int
    wall: float
    problems: list[str]
    #: Latencies in seconds per op kind, as measured and at the
    #: reference speed (see :class:`Pace`).
    measured: dict[str, list[float]]
    scaled: dict[str, list[float]]
    #: Per client, the sum of its latencies at the reference speed.
    busy: list[float]
    speed: float

    @property
    def rate(self) -> float:
        """Completed ops per second at the reference speed: each closed
        loop is busy for the sum of its latencies."""
        return sum(self.done) / statistics.mean(self.busy)

    @property
    def measured_rate(self) -> float:
        return sum(self.done) / self.wall


def run_clients(system, lists: list[list[Op]], deadline_s: float | None,
                recorder=None, id_base: int = 1) -> Outcome:
    """Run one client thread per op list until the lists end or
    ``deadline_s`` seconds have passed.  Client ``c`` numbers its ops
    for the recorder from ``(id_base + c) * 10_000_000``."""
    clients = [Client(system) for _ in lists]
    results: list[tuple] = [(0, 0, [])] * len(lists)
    barrier = threading.Barrier(len(lists) + 1)
    box = {}

    def body(c: int) -> None:
        barrier.wait()
        deadline = box["start"] + deadline_s if deadline_s is not None else None
        results[c] = clients[c].run(
            lists[c], deadline, recorder, first_id=(id_base + c) * 10_000_000
        )

    threads = [threading.Thread(target=body, args=(c,)) for c in range(len(lists))]
    for thread in threads:
        thread.start()
    box["start"] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - box["start"]

    measured = {kind: [] for kind in KINDS}
    scaled = {kind: [] for kind in KINDS}
    busy = []
    for client, (_done, _failed, samples) in zip(clients, results):
        total = 0.0
        for kind, start, seconds, cpu in samples:
            value = client.pace.at_reference(start, seconds, cpu)
            measured[kind].append(seconds)
            scaled[kind].append(value)
            total += value
        busy.append(total)
    speeds = [c.pace.speed() for c in clients]
    return Outcome(
        done=[r[0] for r in results],
        failed=sum(r[1] for r in results),
        wall=wall,
        problems=[p for client in clients for p in client.problems],
        measured=measured,
        scaled=scaled,
        busy=busy,
        speed=statistics.mean(speeds),
    )


# -- the oracle --------------------------------------------------------------------


def oracle(system, model: Model, watch: Watch, expected_sequences: int,
           seed: int) -> list[str]:
    """Every check a run must pass; returns the problems found."""
    problems: list[str] = []
    if watch.errors:
        problems.append(f"{len(watch.errors)} error-log records, first: "
                        f"{watch.errors[0].message}")
    serials = watch.serials
    if len(serials) != expected_sequences:
        problems.append(f"{len(serials)} update sequences accepted, "
                        f"{expected_sequences} attempted")
    if len(set(serials)) != len(serials):
        problems.append("an update serial was accepted twice")
    for prefix, count in model.station_counts().items():
        size = system.pbxes[f"pbx-{prefix}"].size()
        if size != count:
            problems.append(f"pbx-{prefix} holds {size} stations, model {count}")
    if system.messaging.size() != len(model.people):
        problems.append(f"messaging holds {system.messaging.size()} "
                        f"subscribers, model {len(model.people)}")
    rng = random.Random(f"{seed}:oracle")
    ids = sorted(model.people)
    for n in rng.sample(ids, min(200, len(ids))):
        person = model.people[n]
        pbx = system.pbxes[f"pbx-{person.prefix}"]
        if not pbx.contains(person.ext) or pbx.get(person.ext) != person.station():
            problems.append(f"station {person.ext} differs from the model")
        elif not system.messaging.contains(person.phone) or (
            system.messaging.get(person.phone).get("SubscriberName")
            != person.subscriber
        ):
            problems.append(f"subscriber {person.phone} differs from the model")
        if len(problems) > 10:
            break
    inconsistencies = system.inconsistencies()
    if inconsistencies:
        problems.append(f"{len(inconsistencies)} inconsistencies, first: "
                        f"{inconsistencies[0]}")
    return problems
