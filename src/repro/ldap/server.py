"""The LDAP server: protocol dispatch over a :class:`Backend`.

This is the materialized-view store of MetaComm.  It implements
:class:`~repro.ldap.protocol.LdapHandler`, the same interface the LTAP
gateway exposes, so clients cannot tell whether they are talking to the
server directly or through the gateway.
"""

from __future__ import annotations

from typing import Iterable

from .backend import Backend, ChangeListener
from .dn import DN
from .entry import Entry
from .protocol import (
    AddRequest,
    BindRequest,
    CompareRequest,
    DeleteRequest,
    LdapRequest,
    LdapResponse,
    LdapResult,
    ModifyRdnRequest,
    ModifyRequest,
    SearchRequest,
    Session,
    UnbindRequest,
)
from .result import LdapError, ResultCode
from .schema import Schema
from ..obs.metrics import LabelCache, MetricsRegistry

#: The result of every successful operation (results are immutable).
_SUCCESS = LdapResult()


class LdapServer:
    """An in-process LDAP server.

    Parameters
    ----------
    suffixes:
        Naming contexts served (e.g. ``["o=Lucent"]``).
    schema:
        Optional schema; when given, add/modify operations are checked.
    root_dn / root_password:
        A directory-manager identity that can always bind.
    require_bind_for_writes:
        When True, unauthenticated sessions get
        ``insufficientAccessRights`` on update operations — the "very
        simple security mechanism" of the paper's section 7.
    """

    def __init__(
        self,
        suffixes: Iterable[DN | str],
        schema: Schema | None = None,
        server_id: str = "srv1",
        root_dn: str = "cn=Directory Manager",
        root_password: str = "secret",
        require_bind_for_writes: bool = False,
        registry: MetricsRegistry | None = None,
    ):
        self.backend = Backend(suffixes, schema=schema, server_id=server_id)
        self.server_id = server_id
        self.root_dn = DN.parse(root_dn)
        self.root_password = root_password
        self.require_bind_for_writes = require_bind_for_writes
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self._ops = registry.counter(
            "metacomm_ldap_ops_total",
            "LDAP operations processed by the server, by operation type",
            labelnames=("op",),
        )
        self._op_children = LabelCache(self._ops)

    # -- listener plumbing (used by LTAP and replication) --------------------

    def add_listener(self, listener: ChangeListener) -> None:
        self.backend.add_listener(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        self.backend.remove_listener(listener)

    # -- handler interface ----------------------------------------------------

    def process(
        self, request: LdapRequest, session: Session | None = None
    ) -> LdapResponse:
        session = session or Session()
        try:
            return self._dispatch(request, session)
        except LdapError as exc:
            return LdapResponse(
                LdapResult(exc.code, exc.matched_dn, exc.message)
            )

    def _dispatch(self, request: LdapRequest, session: Session) -> LdapResponse:
        if isinstance(request, SearchRequest):  # the common request, tested first
            self._op_children["search"].inc()
            entries = self.backend.search(
                request.base,
                request.scope,
                request.filter,
                request.attributes,
                request.size_limit,
            )
            return LdapResponse(_SUCCESS, entries)
        if isinstance(request, BindRequest):
            return self._bind(request, session)
        if isinstance(request, UnbindRequest):
            session.bound_dn = None
            return LdapResponse(_SUCCESS)
        if isinstance(request, CompareRequest):
            self._op_children["compare"].inc()
            matched = self.backend.compare(
                request.dn, request.attribute, request.value
            )
            code = ResultCode.COMPARE_TRUE if matched else ResultCode.COMPARE_FALSE
            return LdapResponse(LdapResult(code))

        # Everything below is a write.
        self._check_write_access(session)
        if isinstance(request, AddRequest):
            self._op_children["add"].inc()
            self.backend.add(request.entry)
            return LdapResponse(_SUCCESS)
        if isinstance(request, DeleteRequest):
            self._op_children["delete"].inc()
            self.backend.delete(request.dn)
            return LdapResponse(_SUCCESS)
        if isinstance(request, ModifyRequest):
            self._op_children["modify"].inc()
            self.backend.modify(request.dn, request.modifications)
            return LdapResponse(_SUCCESS)
        if isinstance(request, ModifyRdnRequest):
            self._op_children["modifyrdn"].inc()
            self.backend.modify_rdn(
                request.dn, request.new_rdn, request.delete_old_rdn
            )
            return LdapResponse(_SUCCESS)
        raise LdapError(
            ResultCode.PROTOCOL_ERROR, f"unknown request {type(request).__name__}"
        )

    def _check_write_access(self, session: Session) -> None:
        if self.require_bind_for_writes and not session.authenticated:
            raise LdapError(
                ResultCode.INSUFFICIENT_ACCESS_RIGHTS,
                "anonymous sessions may not update the directory",
            )

    def _bind(self, request: BindRequest, session: Session) -> LdapResponse:
        self._op_children["bind"].inc()
        if request.dn.is_root() and not request.password:
            session.bound_dn = None  # anonymous bind
            return LdapResponse(_SUCCESS)
        if request.dn == self.root_dn:
            if request.password != self.root_password:
                raise LdapError(ResultCode.INVALID_CREDENTIALS, "bad root password")
            session.bound_dn = request.dn
            return LdapResponse(_SUCCESS)
        try:
            entry = self.backend.get(request.dn)
        except LdapError:
            raise LdapError(ResultCode.INVALID_CREDENTIALS, "no such user")
        if not entry.attributes.has_value("userPassword", request.password):
            raise LdapError(ResultCode.INVALID_CREDENTIALS, "bad password")
        session.bound_dn = request.dn
        return LdapResponse(_SUCCESS)

    # -- convenience ----------------------------------------------------------

    def get(self, dn: DN | str) -> Entry:
        if isinstance(dn, str):
            dn = DN.parse(dn)
        return self.backend.get(dn)

    def size(self) -> int:
        return self.backend.size()
