"""LDAP client connection.

A thin, ergonomic wrapper that builds protocol messages and raises
:class:`~repro.ldap.result.LdapError` on failure responses.  It connects to
anything that implements the handler interface — the server itself or the
LTAP gateway ("any tool that can perform LDAP updates", paper section 1).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .dn import DN, Rdn
from .entry import Entry
from .filter import Filter, Present
from .protocol import (
    AddRequest,
    BindRequest,
    CompareRequest,
    DeleteRequest,
    LdapHandler,
    LdapResponse,
    Modification,
    ModifyRdnRequest,
    ModifyRequest,
    Scope,
    SearchRequest,
    Session,
    UnbindRequest,
)
from .result import LdapError, ResultCode

#: The filter of a single-entry read: built once, so a read parses nothing.
_ANY_ENTRY = Present("objectClass")


class LdapConnection:
    """One client connection (session) to an LDAP handler."""

    def __init__(self, handler: LdapHandler):
        self.handler = handler
        self.session = Session()

    # -- plumbing -----------------------------------------------------------

    def _call(self, request) -> LdapResponse:
        response = self.handler.process(request, self.session)
        if not response.result.ok:
            raise LdapError(
                response.result.code,
                response.result.message,
                response.result.matched_dn,
            )
        return response

    @staticmethod
    def _dn(dn: DN | str) -> DN:
        return DN.parse(dn) if isinstance(dn, str) else dn

    # -- operations -----------------------------------------------------------

    def bind(self, dn: DN | str = "", password: str = "") -> None:
        self._call(BindRequest(self._dn(dn), password))

    def unbind(self) -> None:
        self._call(UnbindRequest())

    def add(self, dn: DN | str, attributes: Mapping[str, Iterable[str] | str]) -> None:
        self._call(AddRequest(Entry(self._dn(dn), attributes)))

    def add_entry(self, entry: Entry) -> None:
        self._call(AddRequest(entry))

    def delete(self, dn: DN | str) -> None:
        self._call(DeleteRequest(self._dn(dn)))

    def modify(self, dn: DN | str, modifications: Sequence[Modification]) -> None:
        self._call(ModifyRequest(self._dn(dn), tuple(modifications)))

    def replace(self, dn: DN | str, attributes: Mapping[str, Iterable[str] | str]) -> None:
        """Convenience: replace each attribute with the given values."""
        mods = []
        for name, values in attributes.items():
            if isinstance(values, str):
                values = [values]
            mods.append(Modification.replace(name, *values))
        self.modify(dn, mods)

    def modify_rdn(
        self, dn: DN | str, new_rdn: Rdn | str, delete_old_rdn: bool = True
    ) -> None:
        if isinstance(new_rdn, str):
            new_rdn = Rdn.parse(new_rdn)
        self._call(ModifyRdnRequest(self._dn(dn), new_rdn, delete_old_rdn))

    def search(
        self,
        base: DN | str,
        scope: Scope = Scope.SUB,
        filter: Filter | str = "(objectClass=*)",
        attributes: Iterable[str] = (),
        size_limit: int = 0,
    ) -> list[Entry]:
        response = self._call(
            SearchRequest(
                self._dn(base), scope, filter, tuple(attributes), size_limit
            )
        )
        return response.entries

    def get(self, dn: DN | str) -> Entry:
        """Read a single entry (base-scope search)."""
        entries = self.search(dn, Scope.BASE, _ANY_ENTRY)
        if not entries:
            raise LdapError(ResultCode.NO_SUCH_OBJECT, f"no such entry: {dn}")
        return entries[0]

    def exists(self, dn: DN | str) -> bool:
        try:
            self.get(dn)
            return True
        except LdapError as exc:
            if exc.code is ResultCode.NO_SUCH_OBJECT:
                return False
            raise

    def compare(self, dn: DN | str, attribute: str, value: str) -> bool:
        response = self.handler.process(
            CompareRequest(self._dn(dn), attribute, value), self.session
        )
        if response.result.code is ResultCode.COMPARE_TRUE:
            return True
        if response.result.code is ResultCode.COMPARE_FALSE:
            return False
        raise LdapError(response.result.code, response.result.message)
