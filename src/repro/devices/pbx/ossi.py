"""OSSI-style administration terminal for the Definity simulator.

The "existing, often proprietary, interfaces" of paper section 1: device
administrators keep using the terminal they know, and MetaComm picks the
changes up as direct device updates.  The command surface follows the
Definity SAT verb-object style::

    add station 4100 name "Doe, John" room 2B-110
    change station 4100 name "Doe, Jane"
    display station 4100
    list station
    remove station 4100

Responses are formatted text, errors are terse legacy-style codes — this
is deliberately *not* a modern API.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

from ..base import (
    DeviceError,
    DuplicateRecordError,
    InvalidFieldError,
    NoSuchRecordError,
)
from .definity import DefinityPbx
from .station import STATION_FIELD_NAMES

_FIELD_BY_LOWER = {name.lower(): name for name in STATION_FIELD_NAMES}
# Terminal keyword → station field (the terminal speaks lowercase).
_KEYWORDS = dict(_FIELD_BY_LOWER)
_KEYWORDS.update({"cov": "CoveragePath", "covpath": "CoveragePath"})


@dataclass(frozen=True)
class TerminalResponse:
    ok: bool
    text: str

    def __str__(self) -> str:
        return self.text


class OssiTerminal:
    """One administration session against one switch."""

    def __init__(self, pbx: DefinityPbx, login: str = "craft"):
        self.pbx = pbx
        self.login = login
        self.history: list[str] = []

    # -- entry point ---------------------------------------------------------

    def execute(self, command: str) -> TerminalResponse:
        self.history.append(command)
        try:
            words = shlex.split(command)
        except ValueError as exc:
            return TerminalResponse(False, f"?SYNTAX: {exc}")
        if not words:
            return TerminalResponse(False, "?SYNTAX: empty command")
        verb = words[0].lower()
        try:
            if verb == "add":
                return self._add(words[1:])
            if verb == "change":
                return self._change(words[1:])
            if verb in ("remove", "delete"):
                return self._remove(words[1:])
            if verb == "display":
                return self._display(words[1:])
            if verb == "list":
                return self._list(words[1:])
            return TerminalResponse(False, f"?IDENTIFIER: unknown verb {verb!r}")
        except DuplicateRecordError:
            return TerminalResponse(False, "?DUPLICATE: extension already administered")
        except NoSuchRecordError:
            return TerminalResponse(False, "?NO-RECORD: extension not administered")
        except InvalidFieldError as exc:
            return TerminalResponse(False, f"?FIELD: {exc}")
        except DeviceError as exc:
            return TerminalResponse(False, f"?DEVICE: {exc}")

    # -- verbs ------------------------------------------------------------------

    @staticmethod
    def _require_station(words: list[str]) -> list[str]:
        if not words or words[0].lower() != "station":
            raise InvalidFieldError("expected object 'station'")
        return words[1:]

    @staticmethod
    def _parse_fields(words: list[str]) -> dict[str, str | None]:
        if len(words) % 2:
            raise InvalidFieldError("field list must be keyword/value pairs")
        out: dict[str, str | None] = {}
        for i in range(0, len(words), 2):
            keyword = words[i].lower()
            fname = _KEYWORDS.get(keyword)
            if fname is None:
                raise InvalidFieldError(f"unknown field keyword {keyword!r}")
            value = words[i + 1]
            out[fname] = None if value.lower() == "none" else value
        return out

    def _add(self, words: list[str]) -> TerminalResponse:
        rest = self._require_station(words)
        if not rest:
            raise InvalidFieldError("expected an extension")
        extension, fields = rest[0], self._parse_fields(rest[1:])
        record = self.pbx.add_station(
            extension, agent=self.login,
            **{k: v for k, v in fields.items() if v is not None},
        )
        return TerminalResponse(True, self._format_station(record))

    def _change(self, words: list[str]) -> TerminalResponse:
        rest = self._require_station(words)
        if not rest:
            raise InvalidFieldError("expected an extension")
        extension, fields = rest[0], self._parse_fields(rest[1:])
        if not fields:
            raise InvalidFieldError("nothing to change")
        record = self.pbx.change_station(extension, agent=self.login, **fields)
        return TerminalResponse(True, self._format_station(record))

    def _remove(self, words: list[str]) -> TerminalResponse:
        rest = self._require_station(words)
        if not rest:
            raise InvalidFieldError("expected an extension")
        self.pbx.remove_station(rest[0], agent=self.login)
        return TerminalResponse(True, f"station {rest[0]} removed")

    def _display(self, words: list[str]) -> TerminalResponse:
        rest = self._require_station(words)
        if not rest:
            raise InvalidFieldError("expected an extension")
        return TerminalResponse(True, self._format_station(self.pbx.station(rest[0])))

    def _list(self, words: list[str]) -> TerminalResponse:
        if not words or words[0].lower() != "station":
            raise InvalidFieldError("expected object 'station'")
        stations = self.pbx.list_stations()
        lines = [f"STATIONS: {len(stations)}"]
        for record in sorted(stations, key=lambda r: r["Extension"]):
            name = record.get("Name", "")
            room = record.get("Room", "")
            lines.append(f"  {record['Extension']:<6} {name:<27} {room}")
        return TerminalResponse(True, "\n".join(lines))

    # -- formatting -------------------------------------------------------------

    @staticmethod
    def _format_station(record: dict[str, str]) -> str:
        lines = ["STATION"]
        for name in STATION_FIELD_NAMES:
            if name in record:
                lines.append(f"  {name + ':':<14}{record[name]}")
        return "\n".join(lines)
