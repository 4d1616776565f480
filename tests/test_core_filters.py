"""Unit tests for the filter layer: protocol converters + mappers in
isolation (paper section 4.1)."""

import pytest

from repro.core.filters.base import FilterError
from repro.core.filters.device_filter import UM_AGENT, DeviceFilter
from repro.core.filters.ldap_filter import LdapFilter
from repro.devices import DefinityPbx
from repro.ldap import LdapConnection, LdapServer
from repro.lexpress import (
    TargetAction,
    TargetUpdate,
        UpdateOp,
    compile_mapping,
)
from repro.ltap import LtapGateway

PBX_TO_LDAP = compile_mapping(
    """
    mapping pbx_to_ldap {
        source pbx;
        target ldap;
        key Extension -> definityExtension;
        map cn = Name;
        map lastUpdater = "pbx";
    }
    """
)


@pytest.fixture
def pbx():
    return DefinityPbx("pbx-t", ("4",))


@pytest.fixture
def device_filter(pbx):
    return DeviceFilter(pbx, schema="pbx")


def tu(action, key, attrs=None, changed=None, removed=(), conditional=False,
       old_key=None, old_attrs=None):
    return TargetUpdate(
        action=action,
        target="pbx-t",
        key=key,
        old_key=old_key or key,
        key_attribute="Extension",
        attributes=attrs or {},
        old_attributes=old_attrs or {},
        changed=changed or {},
        removed=removed,
        conditional=conditional,
    )


class TestDeviceFilterApply:
    def test_add(self, device_filter, pbx):
        result = device_filter.apply(
            tu(TargetAction.ADD, "4100", {"Extension": ["4100"], "Name": ["A, B"]})
        )
        assert result.applied
        assert pbx.station("4100")["Name"] == "A, B"

    def test_add_drops_unknown_and_generated_fields(self, device_filter, pbx):
        device_filter.apply(
            tu(
                TargetAction.ADD,
                "4100",
                {"Extension": ["4100"], "NotAField": ["x"], "Name": ["A"]},
            )
        )
        assert "NotAField" not in pbx.station("4100")

    def test_conditional_add_becomes_modify(self, device_filter, pbx):
        pbx.add_station("4100", Name="Old")
        result = device_filter.apply(
            tu(
                TargetAction.ADD,
                "4100",
                {"Extension": ["4100"], "Name": ["New"]},
                conditional=True,
            )
        )
        assert result.recovered
        assert pbx.station("4100")["Name"] == "New"

    def test_modify(self, device_filter, pbx):
        pbx.add_station("4100", Room="1A")
        result = device_filter.apply(
            tu(TargetAction.MODIFY, "4100", changed={"Room": ["2B"]})
        )
        assert result.applied
        assert pbx.station("4100")["Room"] == "2B"

    def test_modify_removed_fields(self, device_filter, pbx):
        pbx.add_station("4100", Room="1A")
        device_filter.apply(
            tu(TargetAction.MODIFY, "4100", removed=("Room",))
        )
        assert "Room" not in pbx.station("4100")

    def test_modify_missing_raises_unless_conditional(self, device_filter):
        with pytest.raises(FilterError):
            device_filter.apply(
                tu(TargetAction.MODIFY, "4999", changed={"Room": ["2B"]})
            )

    def test_conditional_modify_falls_back_to_add(self, device_filter, pbx):
        result = device_filter.apply(
            tu(
                TargetAction.MODIFY,
                "4100",
                attrs={"Extension": ["4100"], "Name": ["A"]},
                changed={"Name": ["A"]},
                conditional=True,
            )
        )
        assert result.recovered
        assert pbx.contains("4100")

    def test_modify_rekeys(self, device_filter, pbx):
        pbx.add_station("4100", Name="Mover")
        device_filter.apply(
            tu(
                TargetAction.MODIFY,
                "4200",
                old_key="4100",
                changed={},
            )
        )
        assert pbx.contains("4200")
        assert not pbx.contains("4100")

    def test_delete(self, device_filter, pbx):
        pbx.add_station("4100")
        result = device_filter.apply(tu(TargetAction.DELETE, "4100"))
        assert result.applied
        assert not pbx.contains("4100")

    def test_conditional_delete_tolerates_missing(self, device_filter):
        result = device_filter.apply(
            tu(TargetAction.DELETE, "4999", conditional=True)
        )
        assert not result.applied
        assert result.recovered

    def test_skip_is_noop(self, device_filter, pbx):
        result = device_filter.apply(tu(TargetAction.SKIP, "4100"))
        assert not result.applied
        assert pbx.size() == 0

    def test_statistics_track_outcomes(self, device_filter, pbx):
        device_filter.apply(
            tu(TargetAction.ADD, "4100", {"Extension": ["4100"]})
        )
        device_filter.apply(
            tu(TargetAction.DELETE, "4999", conditional=True)
        )
        with pytest.raises(FilterError):
            device_filter.apply(tu(TargetAction.DELETE, "4888"))
        for event in ("applied", "conditional", "recovered", "failed"):
            assert device_filter.registry.value(
                "metacomm_filter_events_total",
                filter=device_filter.name,
                event=event,
            ) == 1, event


class TestDeviceFilterNotifications:
    def test_ddu_descriptor_shape(self, device_filter, pbx):
        received = []
        device_filter.on_ddu(lambda f, d: received.append(d))
        pbx.add_station("4100", Name="A, B", agent="craft")
        (descriptor,) = received
        assert descriptor.op is UpdateOp.ADD
        assert descriptor.source == "pbx"
        assert descriptor.origin == "pbx-t"
        assert descriptor.get_new("Name") == ["A, B"]
        assert "name" in descriptor.explicit

    def test_um_writes_not_reported_as_ddus(self, device_filter, pbx):
        received = []
        device_filter.on_ddu(lambda f, d: received.append(d))
        pbx.add_station("4100", agent=UM_AGENT)
        assert received == []

    def test_modify_descriptor_explicit_only_changed(self, device_filter, pbx):
        pbx.add_station("4100", Name="A", Room="1")
        received = []
        device_filter.on_ddu(lambda f, d: received.append(d))
        pbx.change_station("4100", Room="2", agent="craft")
        (descriptor,) = received
        assert descriptor.op is UpdateOp.MODIFY
        assert descriptor.explicit == {"room"}

    def test_fetch_and_dump(self, device_filter, pbx):
        pbx.add_station("4100", Name="A")
        assert device_filter.fetch("4100")["Name"] == ["A"]
        assert device_filter.fetch("4999") is None
        assert len(device_filter.dump()) == 1


class TestDeviceFilterCompensate:
    def test_compensate_add(self, device_filter, pbx):
        update = tu(TargetAction.ADD, "4100", {"Extension": ["4100"]})
        device_filter.apply(update)
        device_filter.compensate(update, before=None)
        assert not pbx.contains("4100")

    def test_compensate_delete(self, device_filter, pbx):
        pbx.add_station("4100", Name="A")
        before = device_filter.fetch("4100")
        update = tu(TargetAction.DELETE, "4100")
        device_filter.apply(update)
        device_filter.compensate(update, before=before)
        assert pbx.station("4100")["Name"] == "A"

    def test_compensate_modify_restores_and_removes(self, device_filter, pbx):
        pbx.add_station("4100", Name="A", Room="1A")
        before = device_filter.fetch("4100")
        update = tu(
            TargetAction.MODIFY,
            "4100",
            changed={"Name": ["B"], "Building": ["X"]},
            removed=("Room",),
        )
        device_filter.apply(update)
        device_filter.compensate(update, before=before)
        station = pbx.station("4100")
        assert station["Name"] == "A"
        assert station["Room"] == "1A"
        assert "Building" not in station


class TestLdapFilterUnit:
    @pytest.fixture
    def stack(self):
        server = LdapServer(["o=L"])
        conn = LdapConnection(server)
        conn.add("o=L", {"objectClass": "organization", "o": "L"})
        gateway = LtapGateway(server)
        ldap_filter = LdapFilter(gateway, people_base="o=L")
        return server, gateway, ldap_filter

    def _add_update(self, key, cn=None):
        attrs = {"definityExtension": [key]}
        if cn:
            attrs["cn"] = [cn]
        return TargetUpdate(
            action=TargetAction.ADD,
            target="ldap",
            key=key,
            old_key=None,
            key_attribute="definityExtension",
            attributes=attrs,
        )

    def test_add_creates_schema_complete_person(self, stack):
        server, _gateway, ldap_filter = stack
        ldap_filter.apply(self._add_update("4100", cn="A B"))
        entry = server.get("cn=A B,o=L")
        assert "inetOrgPerson" in entry.object_classes
        assert entry.first("sn") == "B"

    def test_add_without_cn_uses_key(self, stack):
        server, _gateway, ldap_filter = stack
        ldap_filter.apply(self._add_update("4100"))
        assert server.get("cn=4100,o=L").first("definityExtension") == "4100"

    def test_add_merges_into_existing_by_key(self, stack):
        server, _gateway, ldap_filter = stack
        ldap_filter.apply(self._add_update("4100", cn="A B"))
        update = self._add_update("4100", cn="A B")
        update.attributes["definityRoom"] = ["9Z"]
        result = ldap_filter.apply(update)
        assert result.applied
        assert server.get("cn=A B,o=L").first("definityRoom") == "9Z"
        # Still one person.
        assert len(ldap_filter.person_entries()) == 1

    def test_unique_dn_on_cn_collision(self, stack):
        server, _gateway, ldap_filter = stack
        ldap_filter.apply(self._add_update("4100", cn="A B"))
        ldap_filter.apply(self._add_update("4200", cn="A B"))
        dns = {str(e.dn) for e in ldap_filter.person_entries()}
        assert dns == {"cn=A B,o=L", "cn=A B (4200),o=L"}

    def test_locate(self, stack):
        _server, _gateway, ldap_filter = stack
        ldap_filter.apply(self._add_update("4100", cn="A B"))
        assert ldap_filter.locate("definityExtension", "4100") is not None
        assert ldap_filter.locate("definityExtension", "9999") is None

    def test_delete_strips_but_preserves_identity(self, stack):
        server, _gateway, ldap_filter = stack
        ldap_filter.apply(self._add_update("4100", cn="A B"))
        update = TargetUpdate(
            action=TargetAction.DELETE,
            target="ldap",
            key="4100",
            old_key="4100",
            key_attribute="definityExtension",
            old_attributes={"definityExtension": ["4100"], "cn": ["A B"]},
        )
        ldap_filter.apply(update)
        entry = server.get("cn=A B,o=L")
        assert not entry.has("definityExtension")
        assert entry.first("cn") == "A B"

    def test_modify_missing_without_conditional_fails(self, stack):
        _server, _gateway, ldap_filter = stack
        update = TargetUpdate(
            action=TargetAction.MODIFY,
            target="ldap",
            key="4100",
            old_key="4100",
            key_attribute="definityExtension",
            changed={"definityRoom": ["1"]},
        )
        with pytest.raises(FilterError):
            ldap_filter.apply(update)
