"""One comparer for the oracle, the auditor and resync: the drift records
``MetaComm._compare`` returns, their rendering, and a resync that repairs
exactly those records (paper section 4.4)."""

import pytest

from repro.core import MetaComm, MetaCommConfig


@pytest.fixture
def system():
    system = MetaComm(MetaCommConfig())
    terminal = system.terminal()
    for ext, name in (("4100", "Doe, John"), ("4101", "Lu, Jill"), ("4102", "Roe, Rita")):
        assert terminal.execute(f'add station {ext} name "{name}" room 1A').ok
    assert system.consistent()
    return system


def drift_of(system, kind):
    binding = system.um.binding("definity")
    return [
        d for d in system.binding_drift(binding, binding.filter.dump())
        if d.kind == kind
    ]


class TestDriftRecords:
    """Each kind of record renders as the oracle's problem string."""

    def test_missing(self, system):
        record = {"Extension": "4200", "Name": "New, Nat"}
        system.pbx()._records["4200"] = dict(record)
        (drift,) = drift_of(system, "missing")
        assert str(drift) == "definity: record 4200 missing from directory"
        assert drift.key == "4200"
        assert drift.record == record

    def test_mismatch(self, system):
        system.pbx()._records["4100"]["Room"] = "9Z"
        (drift,) = drift_of(system, "mismatch")
        assert str(drift) == (
            "definity: 4100: definityRoom device=['9Z'] directory=('1A',)"
        )
        assert drift.attribute == "definityRoom"
        assert drift.rule.target == "definityRoom"
        assert drift.entry.first("definityRoom") == "1A"
        assert drift.record["Room"] == "9Z"

    def test_unknown(self, system):
        del system.pbx()._records["4101"]
        (drift,) = drift_of(system, "unknown")
        assert str(drift) == (
            "definity: directory entry cn=Jill Lu,o=Lucent claims "
            "definityExtension=4101 unknown to the device"
        )
        assert drift.key == "4101"
        assert str(drift.entry.dn) == "cn=Jill Lu,o=Lucent"

    def test_strings_are_the_oracles(self, system):
        pbx = system.pbx()
        pbx._records["4100"].update(Room="9Z", Name="Doe, Jon")
        del pbx._records["4101"]
        pbx._records["4200"] = {"Extension": "4200", "Name": "New, Nat"}
        binding = system.um.binding("definity")
        drift = system.binding_drift(binding, binding.filter.dump())
        assert [d.kind for d in drift] == ["mismatch", "mismatch", "missing", "unknown"]
        assert list(map(str, drift)) == system.inconsistencies()
        assert system.binding_inconsistencies(binding) == system.inconsistencies()


class TestResyncRepairsTheDrift:
    """``synchronize`` applies one repair per drifted record."""

    def test_one_repair_per_drifted_record(self, system):
        pbx = system.pbx()
        # Two mismatched attributes of one record make one MODIFY.
        pbx._records["4100"].update(Room="9Z", Name="Doe, Jon")
        del pbx._records["4101"]
        pbx._records["4200"] = {"Extension": "4200", "Name": "New, Nat"}
        report = system.sync.synchronize("definity")
        assert report.errors == []
        assert (report.added, report.modified, report.deleted) == (1, 1, 1)
        # Three dumped records and one unknown entry; 4102 is clean.
        assert report.examined == 4
        assert report.skipped == 1
        assert system.consistent()
        entry = system.find_person("(definityExtension=4100)")[0]
        assert entry.first("definityRoom") == "9Z"
        assert str(entry.dn) == "cn=Jon Doe,o=Lucent"

    def test_resync_images_only_the_drifted_record(self, system):
        system.auditor.run_cycle(full=True)  # builds the view, fills the memo
        view = system.auditor._view
        system.pbx()._records["4101"]["Room"] = "9Z"
        imaged = view.imaged
        report = system.sync.synchronize("definity")
        assert system.auditor._view is view
        assert view.imaged - imaged == 1
        assert report.applied == 1 and report.modified == 1
        assert report.examined == 3 and report.skipped == 2
        assert system.consistent()


class TestSameNameReattach:
    """A same-name station removed and re-added is re-attached to its
    stripped entry, whose RDN holds a disambiguator the device does not
    know (``cn=John Doe (4101)``); the merge must keep that RDN value."""

    @pytest.fixture
    def stripped(self):
        system = MetaComm(MetaCommConfig())
        terminal = system.terminal()
        for command in (
            'add station 4100 name "Doe, John"',
            'add station 4101 name "Doe, John"',
            "remove station 4101",
        ):
            assert terminal.execute(command).ok
        assert system.consistent()
        return system

    def test_readd_via_terminal(self, stripped):
        assert stripped.terminal().execute('add station 4101 name "Doe, John"').ok
        assert stripped.error_log.entries() == []
        assert stripped.inconsistencies() == []
        entry = stripped.find_person("(definityExtension=4101)")[0]
        assert str(entry.dn) == "cn=John Doe (4101),o=Lucent"
        assert set(entry.get("cn")) == {"John Doe", "John Doe (4101)"}

    def test_readd_behind_metacomms_back_then_resync(self, stripped):
        stripped.pbx()._records["4101"] = {"Extension": "4101", "Name": "Doe, John"}
        report = stripped.sync.synchronize("definity")
        assert report.errors == []
        assert report.added == 1
        assert stripped.error_log.entries() == []
        assert stripped.inconsistencies() == []
