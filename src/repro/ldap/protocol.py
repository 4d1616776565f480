"""LDAP protocol messages.

The wire format of real LDAP is BER over TCP; MetaComm's claims are about
*semantics* (atomic single-entry updates, no transactions, trigger
interception), so the transport here is message objects handed to a
``process(request, session)`` method.  Anything that implements
:class:`LdapHandler` can stand in for an LDAP server — notably the LTAP
gateway, which "pretends to be an LDAP server" (paper section 4.3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Protocol

from .dn import DN, Rdn
from .entry import Entry, ModOp, Modification  # noqa: F401 - re-exported
from .filter import Filter
from .result import ResultCode

_message_ids = itertools.count(1)


class Scope(enum.Enum):
    BASE = "base"
    ONE = "one"
    SUB = "sub"


@dataclass
class LdapRequest:
    """Base class for all request PDUs."""

    def __post_init__(self) -> None:
        self.message_id = next(_message_ids)


@dataclass
class BindRequest(LdapRequest):
    dn: DN
    password: str


@dataclass
class UnbindRequest(LdapRequest):
    pass


@dataclass
class AddRequest(LdapRequest):
    entry: Entry


@dataclass
class DeleteRequest(LdapRequest):
    dn: DN


@dataclass
class ModifyRequest(LdapRequest):
    dn: DN
    modifications: tuple[Modification, ...]


@dataclass
class ModifyRdnRequest(LdapRequest):
    dn: DN
    new_rdn: Rdn
    delete_old_rdn: bool = True


@dataclass
class SearchRequest(LdapRequest):
    base: DN
    scope: Scope = Scope.SUB
    filter: Filter | str = "(objectClass=*)"
    attributes: tuple[str, ...] = ()
    size_limit: int = 0


@dataclass
class CompareRequest(LdapRequest):
    dn: DN
    attribute: str
    value: str


@dataclass(frozen=True)
class LdapResult:
    """The resultCode / matchedDN / errorMessage triple of LDAP responses.
    Immutable, so every success response can share one."""

    code: ResultCode = ResultCode.SUCCESS
    matched_dn: str = ""
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.code in (
            ResultCode.SUCCESS,
            ResultCode.COMPARE_TRUE,
            ResultCode.COMPARE_FALSE,
        )


@dataclass
class LdapResponse:
    result: LdapResult
    entries: list[Entry] = field(default_factory=list)


class LdapHandler(Protocol):
    """Anything that accepts LDAP requests: a server or a gateway."""

    def process(self, request: LdapRequest, session: "Session | None" = None) -> LdapResponse:
        ...


class Session:
    """Per-connection state: bind identity plus arbitrary gateway state.

    LTAP stores persistent-connection/synchronization markers here
    (paper section 5.1 describes why persistent connections were added).
    """

    _ids = itertools.count(1)

    def __init__(self) -> None:
        self.session_id = next(self._ids)
        self.bound_dn: DN | None = None
        self.state: dict[str, object] = {}

    @property
    def authenticated(self) -> bool:
        return self.bound_dn is not None
