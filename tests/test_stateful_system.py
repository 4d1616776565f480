"""Stateful whole-system testing: random operation sequences against a
full MetaComm deployment, with global consistency as the invariant.

This is the strongest oracle we have for the paper's headline claim: after
*any* interleaving of WBA-style LDAP updates, craft-terminal DDUs, user
deletions, changes at the switch behind MetaComm's back and
resynchronizations, every repository agrees.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import LdapError, Modification
from repro.schemas import PERSON_CLASSES

_EXTENSIONS = [str(4100 + i) for i in range(4)]
_ROOMS = ["1A", "2B", "3C"]


def _name(ext: str, same_name: bool) -> str:
    """A station's name: everyone hired with *same_name* is called
    "Doe, John", so their entries' RDNs need a disambiguator."""
    return "Doe, John" if same_name else f"{ext}, User"


class MetaCommMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # The lock witness records every acquisition-order pair; the
        # invariant below turns any reversal seen during a random
        # operation sequence into a counterexample hypothesis can shrink.
        self.system = MetaComm(MetaCommConfig(lock_witness=True))
        self.conn = self.system.connection()
        self.terminal = self.system.terminal()
        self.live: set[str] = set()  # extensions with a person entry

    def _dn(self, ext: str) -> str:
        return f"cn=User {ext},o=Lucent"

    @rule(ext=st.sampled_from(_EXTENSIONS))
    def hire_via_ldap(self, ext):
        if ext in self.live:
            return
        if self.conn.exists(self._dn(ext)):
            # The person survived an earlier station removal; re-provision.
            self.conn.modify(
                self._dn(ext),
                [Modification.replace("definityExtension", ext)],
            )
        else:
            self.conn.add(
                self._dn(ext),
                {
                    "objectClass": list(PERSON_CLASSES),
                    "cn": f"User {ext}",
                    "sn": ext,
                    "definityExtension": ext,
                },
            )
        self.live.add(ext)

    @rule(ext=st.sampled_from(_EXTENSIONS), same_name=st.booleans())
    def hire_via_terminal(self, ext, same_name):
        if ext in self.live:
            return
        response = self.terminal.execute(
            f'add station {ext} name "{_name(ext, same_name)}"'
        )
        assert response.ok, response.text
        self.live.add(ext)

    @rule(ext=st.sampled_from(_EXTENSIONS), room=st.sampled_from(_ROOMS))
    def move_room_via_ldap(self, ext, room):
        if ext not in self.live:
            return
        hits = self.system.find_person(f"(definityExtension={ext})")
        if not hits:
            return
        self.conn.modify(
            hits[0].dn, [Modification.replace("definityRoom", room)]
        )

    @rule(ext=st.sampled_from(_EXTENSIONS), room=st.sampled_from(_ROOMS))
    def move_room_via_terminal(self, ext, room):
        if ext not in self.live:
            return
        self.terminal.execute(f"change station {ext} room {room}")

    @rule(ext=st.sampled_from(_EXTENSIONS))
    def fire_via_ldap(self, ext):
        if ext not in self.live:
            return
        hits = self.system.find_person(f"(definityExtension={ext})")
        if not hits:
            return
        try:
            self.conn.delete(hits[0].dn)
        except LdapError:
            return
        self.live.discard(ext)

    @rule(ext=st.sampled_from(_EXTENSIONS))
    def remove_station_via_terminal(self, ext):
        if ext not in self.live:
            return
        self.terminal.execute(f"remove station {ext}")
        # The person entry survives with device data stripped; the
        # extension no longer counts as live device data.
        self.live.discard(ext)

    @rule()
    def resynchronize(self):
        report = self.system.sync.synchronize("definity")
        assert not report.errors, report.errors

    @rule(
        ext=st.sampled_from(_EXTENSIONS),
        drift=st.sampled_from(["room", "remove", "add"]),
        room=st.sampled_from(_ROOMS),
        same_name=st.booleans(),
    )
    def drift_then_resync(self, ext, drift, room, same_name):
        """A change at the switch behind MetaComm's back (a disconnected
        device), then a resync: it repairs exactly the drift records."""
        records = self.system.pbx()._records
        if drift == "room" and ext in records:
            records[ext]["Room"] = room
        elif drift == "remove" and ext in records:
            del records[ext]
            self.live.discard(ext)
        elif drift == "add" and ext not in records:
            records[ext] = {"Extension": ext, "Name": _name(ext, same_name)}
            self.live.add(ext)
        binding = self.system.um.binding("definity")
        drifted = {
            record.key
            for record in self.system.binding_drift(binding, binding.filter.dump())
        }
        report = self.system.sync.synchronize("definity")
        assert not report.errors, report.errors
        assert report.applied == len(drifted), (report, drifted)
        assert self.system.consistent(), self.system.inconsistencies()

    @invariant()
    def globally_consistent(self):
        problems = self.system.inconsistencies()
        assert problems == [], problems

    @invariant()
    def no_locks_leaked(self):
        assert self.system.gateway.locks.held_count() == 0

    @invariant()
    def no_errors_logged(self):
        assert len(self.system.error_log) == 0

    @invariant()
    def no_lock_order_reversals(self):
        assert self.system.lock_witness.violations() == []


MetaCommMachine.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestMetaCommStateful = MetaCommMachine.TestCase
