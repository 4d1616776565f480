"""Extensibility: adding a brand-new data source without core changes.

Section 7: "MetaComm is a full-fledged and extensible mediator system ...
New data sources can be easily added.  The extensibility of MetaComm is
due mostly to its lexpress component."

We integrate a *call-accounting system* — a device type the core has never
heard of — using only public API: a Device subclass, a MappingSetBuilder
pair, a DeviceFilter and a DeviceBinding.  Updates then flow to and from
it exactly like the paper's PBX and MP.
"""

import pytest

from repro.core import DeviceBinding, DeviceFilter, MetaComm, MetaCommConfig
from repro.devices import Device, FieldSpec
from repro.ldap.schema import AttributeType
from repro.lexpress import MappingSetBuilder
from repro.schemas import PERSON_CLASSES


class CallAccounting(Device):
    """A third-party call-accounting box: account codes per extension."""

    def __init__(self, name: str = "callacct"):
        super().__init__(
            name,
            key_field="Ext",
            fields=(
                FieldSpec("Ext", max_length=5, required=True),
                FieldSpec("AcctCode", max_length=8),
                FieldSpec("Dept", max_length=12),
            ),
        )


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


@pytest.fixture
def system():
    system = MetaComm(MetaCommConfig())
    # 1. New attributes for the integrated schema (unique names, 5.2).
    for name in ("caAccountCode", "caDepartment"):
        system.schema.define_attribute(AttributeType(name))
    # Loosen: the integrated personclasses don't list the new attrs; a real
    # deployment would add an auxiliary class.  Define one.
    from repro.ldap.schema import ClassKind, ObjectClass

    system.schema.define_class(
        ObjectClass(
            "callAccountingUser",
            kind=ClassKind.AUXILIARY,
            sup="top",
            may=("caAccountCode", "caDepartment"),
        )
    )

    # 2. The mapping pair, generated from one declaration (section 5.4's
    #    builder) and compiled at run time (section 4.2's dynamic add).
    forward, backward = (
        MappingSetBuilder("ca", "ldap")
        .key("Ext", "definityExtension")
        .originator("lastUpdater")
        .map("AcctCode", "caAccountCode")
        .map("Dept", "caDepartment")
        .partition(backward="present(Ext) and present(AcctCode)")
        .compile()
    )

    # 3. Wire the device in through public API only.
    device = CallAccounting()
    binding = DeviceBinding(
        filter=DeviceFilter(device, schema="ca"),
        to_ldap=forward,
        from_ldap=backward,
    )
    system.um.bindings.append(binding)
    binding.filter.on_ddu(system.um._on_ddu)
    system.um.closure = type(system.um.closure)(
        list(system.um.closure.mappings) + [forward, backward]
    )
    # 4. New person entries materialized from devices should carry the new
    #    auxiliary class too.
    system.ldap_filter.person_classes = tuple(
        list(system.ldap_filter.person_classes) + ["callAccountingUser"]
    )
    system.call_accounting = device
    return system


AUX_CLASSES = list(PERSON_CLASSES) + ["callAccountingUser"]


class TestNewDataSource:
    def test_ldap_add_provisions_new_device(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent",
            {
                "objectClass": AUX_CLASSES,
                "cn": "A B",
                "sn": "B",
                "definityExtension": "4100",
                "caAccountCode": "ACCT-42",
            },
        )
        record = system.call_accounting.get("4100")
        assert record["AcctCode"] == "ACCT-42"
        # The paper devices were provisioned too — nothing broke.
        assert system.pbx().contains("4100")
        assert system.messaging.size() == 1

    def test_new_device_ddu_reaches_directory(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent",
            {
                "objectClass": AUX_CLASSES,
                "cn": "A B", "sn": "B",
                "definityExtension": "4100",
                "caAccountCode": "ACCT-1",
            },
        )
        system.call_accounting.modify(
            "4100", {"Dept": "R&D"}, agent="vendor-tool"
        )
        entry = conn.get("cn=A B,o=Lucent")
        assert entry.first("caDepartment") == "R&D"
        assert entry.first("lastUpdater") == "callacct"

    def test_new_device_participates_in_reapply(self, system):
        system.connection().add(
            "cn=A B,o=Lucent",
            {
                "objectClass": AUX_CLASSES,
                "cn": "A B", "sn": "B",
                "definityExtension": "4100",
                "caAccountCode": "ACCT-1",
            },
        )
        ca_filter = system.um.binding("callacct").filter

        def conditional():
            return ca_filter.registry.value(
                "metacomm_filter_events_total",
                filter=ca_filter.name,
                event="conditional",
            )

        before = conditional()
        system.call_accounting.modify("4100", {"Dept": "Ops"}, agent="vendor")
        assert conditional() > before

    def test_partition_keeps_non_subscribers_out(self, system):
        # No caAccountCode -> the partition predicate keeps the person off
        # the call-accounting box entirely.
        system.connection().add(
            "cn=NoAcct,o=Lucent",
            person_attrs("NoAcct", "N", definityExtension="4200"),
        )
        assert not system.call_accounting.contains("4200")
        assert system.pbx().contains("4200")

    def test_sync_covers_new_device(self, system):
        """The synchronization facility works for the new source unchanged."""
        system.call_accounting._records["4300"] = {
            "Ext": "4300", "AcctCode": "LEGACY-7",
        }
        report = system.sync.synchronize("callacct")
        assert report.added == 1
        (entry,) = system.find_person("(caAccountCode=LEGACY-7)")
        assert entry.first("definityExtension") == "4300"
