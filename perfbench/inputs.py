"""Seeded inputs for the MetaComm benchmark.

Everything a run feeds the system is generated here from the seed alone,
before the set-up clock starts: the preloaded population, the probe ops
and the main-loop ops of each client.  The generator keeps a model of
what the directory and the devices must hold, so every op carries the
answer a correct system gives (reads) and the oracle can compare device
state with the model after the run.

Generation is strictly sequential per random stream, so the first ``k``
ops of a longer list are the ops of a list of length ``k``: a
time-bounded run that executed ``k`` ops is checked against
``build(..., main_ops=k)``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, replace

SUFFIX = "o=Lucent"
#: The deployment's default site dial plan (telephoneNumber = prefix + ext).
PHONE_PREFIX = "+1 908 582 "
#: One PBX per two-digit extension prefix; extensions are prefix + 3 digits.
PREFIXES = tuple(str(p) for p in range(41, 49))

GIVEN = (
    "Ann", "Bob", "Jill", "Pat", "Tim", "Wei", "Ravi", "Maria", "Luke",
    "Qian", "Omar", "Nina", "Ivan", "Lena", "Yuki", "Hector",
)
SURNAMES = (
    "Doe", "Lu", "Smith", "Freire", "Garg", "Holder", "Urroz", "Orbach",
    "Tucker", "Ye", "Chen", "Patel", "Kim", "Novak", "Okafor", "Arlein",
)
#: Office rooms (about ten people share one, so room searches return
#: several entries) and the hoteling workspaces of section 4.5.
ROOMS = tuple(f"{f}{w}-{n}" for f in "1234" for w in "ABCD" for n in range(100, 110))
HOTEL_ROOMS = tuple(f"H{f}-{n}" for f in "12" for n in range(10, 30))
BUILDINGS = ("MH", "HO", "WST", "NR")
COS_VALUES = ("1", "2", "3", "4")


@dataclass
class Person:
    """The model of one person: directory entry, station and subscriber."""

    n: int
    given: str
    surname: str
    ext: str
    room: str
    cos: str
    subscriber: str
    building: str | None = None
    port: str | None = None
    #: The home room while checked in to a hoteling workspace.
    home: str | None = None

    @property
    def cn(self) -> str:
        return f"{self.given} {self.surname}"

    @property
    def dn(self) -> str:
        return f"cn={self.cn},{SUFFIX}"

    @property
    def phone(self) -> str:
        return PHONE_PREFIX + self.ext

    @property
    def prefix(self) -> str:
        return self.ext[:2]

    def station(self) -> dict[str, str]:
        """The Definity station record a consistent system holds."""
        record = {
            "Extension": self.ext,
            "Name": f"{self.surname}, {self.given}",
            "Room": self.room,
            "COS": self.cos,
        }
        if self.building is not None:
            record["Building"] = self.building
        if self.port is not None:
            record["Port"] = self.port
        return record


@dataclass(frozen=True)
class Op:
    """One client call.  ``kind`` is the latency class it is reported in
    (``update``, ``ddu``, ``read`` or ``audit``); ``action`` selects the
    public call; ``expect`` is what a correct system answers."""

    kind: str
    action: str
    args: tuple = ()
    expect: object = None
    #: LDAP-originated update sequences this op must produce.
    sequences: int = 0


class _Ids:
    """An indexable id set with O(1) removal, so ``rng.choice`` stays cheap
    and deterministic while the population churns."""

    def __init__(self) -> None:
        self.items: list[int] = []
        self.index: dict[int, int] = {}

    def add(self, n: int) -> None:
        self.index[n] = len(self.items)
        self.items.append(n)

    def remove(self, n: int) -> None:
        i = self.index.pop(n)
        last = self.items.pop()
        if last != n:
            self.items[i] = last
            self.index[last] = i

    def __len__(self) -> int:
        return len(self.items)


class Model:
    """What the directory and every device must hold."""

    def __init__(self) -> None:
        self.people: dict[int, Person] = {}
        self.by_ext: dict[str, int] = {}
        self.rooms: Counter[str] = Counter()
        self.everyone = _Ids()
        self.groups: dict[tuple[str, ...], _Ids] = {}
        self.checked_in: dict[tuple[str, ...], _Ids] = {}

    def _group(self, prefix: str) -> tuple[str, ...]:
        for group in self.groups:
            if prefix in group:
                return group
        raise KeyError(prefix)

    def add(self, person: Person) -> None:
        self.people[person.n] = person
        self.by_ext[person.ext] = person.n
        self.rooms[person.room] += 1
        self.everyone.add(person.n)
        self.groups[self._group(person.prefix)].add(person.n)

    def remove(self, person: Person) -> None:
        del self.people[person.n]
        del self.by_ext[person.ext]
        self.rooms[person.room] -= 1
        self.everyone.remove(person.n)
        group = self._group(person.prefix)
        self.groups[group].remove(person.n)
        if person.home is not None:
            self.checked_in[group].remove(person.n)

    def move(self, person: Person, room: str) -> None:
        self.rooms[person.room] -= 1
        self.rooms[room] += 1
        person.room = room

    def station_counts(self) -> dict[str, int]:
        counts = Counter(p.prefix for p in self.people.values())
        return {prefix: counts.get(prefix, 0) for prefix in PREFIXES}


def _other(rng: random.Random, pool: tuple[str, ...], current: str | None) -> str:
    while True:
        value = rng.choice(pool)
        if value != current:
            return value


def _free_ext(rng: random.Random, model: Model, prefix: str) -> str:
    while True:
        ext = f"{prefix}{rng.randrange(1000):03d}"
        if ext not in model.by_ext:
            return ext


class Generator:
    """Turns one random stream into valid ops against the shared model."""

    def __init__(
        self,
        model: Model,
        rng: random.Random,
        group: tuple[str, ...] | None,
        first_n: int,
    ):
        #: ``group`` is the prefixes this stream may touch; None = all.
        self.model = model
        self.rng = rng
        self.group = group
        self.next_n = first_n

    def pick(self) -> Person:
        ids = self.model.everyone if self.group is None else self.model.groups[self.group]
        return self.model.people[self.rng.choice(ids.items)]

    def new_person(self, prefix: str | None = None) -> Person:
        rng = self.rng
        n = self.next_n
        self.next_n += 1
        given = rng.choice(GIVEN)
        # The serial keeps every cn unique; the PBX Name field
        # ("Surname-n, Given") stays under its 27-character limit.
        surname = f"{rng.choice(SURNAMES)}-{n}"
        ext = _free_ext(rng, self.model, prefix or rng.choice(self.group))
        return Person(
            n, given, surname, ext,
            room=rng.choice(ROOMS), cos=rng.choice(COS_VALUES),
            subscriber=f"{given} {surname}",
        )

    # -- WBA writes (kind "update") -------------------------------------------

    def create(self) -> Op:
        person = self.new_person()
        self.model.add(person)
        fields = {
            "full_name": person.cn, "surname": person.surname,
            "extension": person.ext, "room": person.room, "cos": person.cos,
        }
        return Op("update", "create", (fields,), person.dn, 1)

    def delete(self) -> Op:
        person = self.pick()
        self.model.remove(person)
        return Op("update", "delete", (person.dn,), None, 1)

    def set_room(self) -> Op:
        person = self.pick()
        self.model.move(person, _other(self.rng, ROOMS, person.room))
        return Op("update", "edit", (person.dn, {"room": person.room}), None, 1)

    def set_cos(self) -> Op:
        person = self.pick()
        person.cos = _other(self.rng, COS_VALUES, person.cos)
        return Op("update", "edit", (person.dn, {"cos": person.cos}), None, 1)

    def renumber(self) -> Op:
        """A number change: new extension on the same switch, and the
        telephone number that goes with it (re-keys station and mailbox)."""
        person = self.pick()
        ext = _free_ext(self.rng, self.model, person.prefix)
        del self.model.by_ext[person.ext]
        person.ext = ext
        self.model.by_ext[ext] = person.n
        fields = {"extension": person.ext, "phone": person.phone}
        return Op("update", "edit", (person.dn, fields), None, 1)

    def rename(self) -> Op:
        """A cn change: LDAP ModifyRDN, the section-5.1 rename path."""
        person = self.pick()
        old_dn = person.dn
        person.given = _other(self.rng, GIVEN, person.given)
        fields = {"full_name": person.cn, "surname": person.surname}
        return Op("update", "edit", (old_dn, fields), None, 1)

    def hotel(self) -> Op:
        """Check a person in to a hoteling workspace, or someone back out."""
        checked_in = self.model.checked_in[self.group]
        if checked_in.items and self.rng.random() < 0.5:
            person = self.model.people[self.rng.choice(checked_in.items)]
            checked_in.remove(person.n)
            self.model.move(person, person.home)
            person.home = person.port = None
            return Op("update", "checkout", (person.dn,), None, 1)
        person = self.pick()
        while person.home is not None:
            person = self.pick()
        person.home = person.room
        checked_in.add(person.n)
        self.model.move(person, _other(self.rng, HOTEL_ROOMS, None))
        rng = self.rng
        person.port = f"{rng.randrange(1, 4):02d}{rng.choice('ABC')}{rng.randrange(1, 20):02d}{rng.randrange(1, 25):02d}"
        return Op("update", "checkin", (person.dn, person.room, person.port), None, 1)

    # -- craft terminal (kind "ddu") --------------------------------------------

    def ddu(self) -> tuple[Op, Person]:
        """A craft ``change station``: room, COS or building, equally likely."""
        person = self.pick()
        field = self.rng.randrange(3)
        if field == 0:
            self.model.move(person, _other(self.rng, ROOMS, person.room))
            change = f"room {person.room}"
        elif field == 1:
            person.cos = _other(self.rng, COS_VALUES, person.cos)
            change = f"cos {person.cos}"
        else:
            person.building = _other(self.rng, BUILDINGS, person.building)
            change = f"building {person.building}"
        command = f"change station {person.ext} {change}"
        return Op("ddu", "ddu", (person.prefix, command), None, 1), person

    # -- LTAP reads (kind "read") -----------------------------------------------

    def reads(self, person: Person, by_room: bool = True) -> list[Op]:
        """What an administrator checks after a craft change: the station by
        extension (indexed), the WBA form and everyone in its room (an
        unindexed scan, dearer than a DDU, so callers may skip it)."""
        ops = [
            Op("read", "by_ext", (person.ext,), person.room),
            Op("read", "form", (person.dn,), (person.ext, person.room)),
        ]
        if by_room:
            ops.append(
                Op("read", "by_room", (person.room,), self.model.rooms[person.room])
            )
        return ops


@dataclass
class Inputs:
    """Everything one run needs, plus the model after all listed ops."""

    preload: list[Person]
    probes: list[Op]
    clients: list[list[Op]]
    model: Model


#: The WBA mix of ``wba_churn``.  There is no measured traffic to weight
#: it by, so each of the eight WBA calls is equally likely: create,
#: delete, room, COS, number change, rename, check-in, check-out.  The
#: ``churn`` slot picks create or delete and the ``hotel`` slot check-in
#: or check-out, which is why each holds two eighths.
WBA_MIX = ("churn", "churn", "room", "cos", "renumber", "rename", "hotel", "hotel")


def _wba_op(gen: Generator, target: int) -> Op:
    action = gen.rng.choice(WBA_MIX)
    if action == "churn":
        # Creates and deletes alternate around the preload size, so the
        # population (and with it every per-op cost) stays put.
        if len(gen.model.groups[gen.group]) <= target:
            return gen.create()
        return gen.delete()
    return {
        "room": gen.set_room,
        "cos": gen.set_cos,
        "renumber": gen.renumber,
        "rename": gen.rename,
        "hotel": gen.hotel,
    }[action]()


def _edit(gen: Generator) -> Op:
    """A WBA edit: room or COS, equally likely."""
    return gen.set_room() if gen.rng.random() < 0.5 else gen.set_cos()


def _probes(gen: Generator, counts: dict[str, int]) -> list[Op]:
    """The probe phase: ``counts[kind]`` ops of each kind, run from one
    thread over the whole fleet before the main loop.  The kinds are
    interleaved evenly, so each kind's samples span the whole phase and
    no kind is timed only during one stretch of a drifting machine."""
    makers = {
        "update": lambda: [_edit(gen)],
        "ddu": lambda: [gen.ddu()[0]],
        # An extension search and the WBA form; every second time also
        # everyone in the room.
        "read": lambda: gen.reads(gen.pick(), by_room=next(read_groups) % 2 == 0),
        "audit": lambda: [Op("audit", "audit")],
    }
    read_groups = itertools.count()
    made = {kind: 0 for kind in counts}
    probes: list[Op] = []
    while True:
        # The kind furthest behind its share goes next.
        behind = [
            (made[kind] / counts[kind], kind)
            for kind in counts if made[kind] < counts[kind]
        ]
        if not behind:
            return probes
        kind = min(behind)[1]
        ops = makers[kind]()[: counts[kind] - made[kind]]
        made[kind] += len(ops)
        probes += ops


def build(
    workload: str,
    seed: int,
    main_ops: int | list[int],
    probe_counts: dict[str, int],
    stations_per_pbx: int,
    clients: int = 1,
    audit_every: int = 0,
) -> Inputs:
    """Generate a run's inputs: preload, probes, then ``main_ops`` ops per
    client (or ``main_ops[c]`` for client ``c``, which owns every
    ``clients``-th prefix; clients never share a person, so each client's
    ops do not depend on how many the others got).
    ``probe_counts`` sizes the probe phase by op kind."""
    model = Model()
    groups = [PREFIXES[c::clients] for c in range(clients)]
    for group in groups:
        model.groups[group] = _Ids()
        model.checked_in[group] = _Ids()

    loader = Generator(model, random.Random(f"{seed}:preload"), None, first_n=1)
    preload = []
    for prefix in PREFIXES:
        for _ in range(stations_per_pbx):
            person = loader.new_person(prefix)
            model.add(person)
            # A copy: later ops mutate the model's person in place.
            preload.append(replace(person))

    probes = _probes(Generator(model, random.Random(f"{seed}:probe"), None, 0),
                     probe_counts)

    lists: list[list[Op]] = []
    for c, group in enumerate(groups):
        count = main_ops[c] if isinstance(main_ops, list) else main_ops
        gen = Generator(
            model, random.Random(f"{seed}:client{c}"), group,
            first_n=100_000 * (c + 1),
        )
        target = len(model.groups[group])
        ops: list[Op] = []
        if workload == "craft_ddu":
            done = 0
            while len(ops) < count:
                # The DDU leads its group, so truncating below cuts only
                # reads and audits, which leave the model unchanged.
                op, person = gen.ddu()
                ops.append(op)
                ops += gen.reads(person, by_room=done % 2 == 0)
                done += 1
                if audit_every and done % audit_every == 0:
                    ops.append(Op("audit", "audit"))
            del ops[count:]
        elif workload == "slow_links":
            for _ in range(count):
                ops.append(gen.create() if gen.rng.random() < 0.5 else _edit(gen))
        else:
            ops = [_wba_op(gen, target) for _ in range(count)]
        lists.append(ops)
    return Inputs(preload, probes, lists, model)
