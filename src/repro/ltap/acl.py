"""Access control for the LTAP gateway.

The paper (section 7): "the current system uses a very simple security
mechanism (based on the security model of LTAP).  As future work, we would
like to investigate more sophisticated security models."  This module is
that investigation: ordered allow/deny rules evaluated first-match-wins,
with subject classes (anonymous / authenticated / self / a specific bind
DN / members of a subtree), subtree scoping, per-attribute write grants,
and separate read/write rights.

Typical policy for a MetaComm deployment::

    acl = AccessControl(default_allow=False)
    acl.allow(Subject.ANYONE, rights=Rights.READ)              # reads open
    acl.allow("cn=Directory Manager", rights=Rights.ALL)       # root
    acl.allow(Subject.SELF, rights=Rights.WRITE,
              attributes=("telephoneNumber", "definityRoom"))  # self-service
    acl.allow(subject_subtree="ou=helpdesk,o=Lucent",
              rights=Rights.WRITE, base="o=Lucent")            # operators
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from ..ldap.dn import DN
from ..ldap.protocol import (
    AddRequest,
    DeleteRequest,
    LdapRequest,
    ModifyRdnRequest,
    ModifyRequest,
    SearchRequest,
    CompareRequest,
    Session,
)
from ..ldap.result import LdapError, ResultCode


class Rights(enum.Flag):
    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    ALL = READ | WRITE


class Subject(enum.Enum):
    """Subject classes a rule can name."""

    ANYONE = "anyone"
    ANONYMOUS = "anonymous"
    AUTHENTICATED = "authenticated"
    #: The bind DN equals the target entry's DN (self-service writes).
    SELF = "self"


@dataclass(frozen=True)
class AclRule:
    """One ordered rule; the first matching rule decides."""

    allow: bool
    rights: Rights
    subject: Subject | DN = Subject.ANYONE
    #: Bind DNs under this subtree match (e.g. a helpdesk OU).
    subject_subtree: DN | None = None
    #: Targets under this base match (root = everything).
    base: DN = field(default_factory=DN.root)
    #: For WRITE rules: attribute names this rule governs (lower-case);
    #: None = all attributes.
    attributes: frozenset[str] | None = None

    def matches_subject(self, session: Session, target: DN) -> bool:
        if self.subject_subtree is not None:
            return (
                session.bound_dn is not None
                and session.bound_dn.is_under(self.subject_subtree)
            )
        if isinstance(self.subject, DN):
            return session.bound_dn == self.subject
        if self.subject is Subject.ANYONE:
            return True
        if self.subject is Subject.ANONYMOUS:
            return session.bound_dn is None
        if self.subject is Subject.AUTHENTICATED:
            return session.bound_dn is not None
        if self.subject is Subject.SELF:
            return session.bound_dn is not None and session.bound_dn == target
        return False

    def matches_target(self, target: DN) -> bool:
        return self.base.is_root() or target.is_under(self.base)

    def covers_attributes(self, touched: frozenset[str]) -> bool:
        if self.attributes is None:
            return True
        return touched <= self.attributes


class AccessControl:
    """An ordered rule list with a default decision."""

    def __init__(self, default_allow: bool = False):
        self.default_allow = default_allow
        self.rules: list[AclRule] = []

    # -- policy building -----------------------------------------------------

    def add_rule(self, rule: AclRule) -> AclRule:
        self.rules.append(rule)
        return rule

    def allow(
        self,
        subject: Subject | DN | str = Subject.ANYONE,
        rights: Rights = Rights.READ,
        base: DN | str = "",
        attributes: Iterable[str] | None = None,
        subject_subtree: DN | str | None = None,
    ) -> AclRule:
        return self.add_rule(self._rule(True, subject, rights, base, attributes, subject_subtree))

    def deny(
        self,
        subject: Subject | DN | str = Subject.ANYONE,
        rights: Rights = Rights.ALL,
        base: DN | str = "",
        attributes: Iterable[str] | None = None,
        subject_subtree: DN | str | None = None,
    ) -> AclRule:
        return self.add_rule(self._rule(False, subject, rights, base, attributes, subject_subtree))

    @staticmethod
    def _rule(allow, subject, rights, base, attributes, subject_subtree) -> AclRule:
        if isinstance(subject, str):
            subject = DN.parse(subject)
        if isinstance(base, str):
            base = DN.parse(base)
        if isinstance(subject_subtree, str):
            subject_subtree = DN.parse(subject_subtree)
        attrs = (
            frozenset(a.lower() for a in attributes)
            if attributes is not None
            else None
        )
        return AclRule(
            allow=allow,
            rights=rights,
            subject=subject,
            subject_subtree=subject_subtree,
            base=base,
            attributes=attrs,
        )

    # -- decisions ----------------------------------------------------------------

    def decide(
        self,
        session: Session,
        right: Rights,
        target: DN,
        touched: frozenset[str] = frozenset(),
    ) -> bool:
        for rule in self.rules:
            if not rule.rights & right:
                continue
            if not rule.matches_subject(session, target):
                continue
            if not rule.matches_target(target):
                continue
            if right is Rights.WRITE and not rule.covers_attributes(touched):
                continue
            return rule.allow
        return self.default_allow

    def check_request(self, request: LdapRequest, session: Session) -> None:
        """Raise ``insufficientAccessRights`` when the request is denied."""
        if isinstance(request, (SearchRequest, CompareRequest)):
            target = request.base if isinstance(request, SearchRequest) else request.dn
            if not self.decide(session, Rights.READ, target):
                raise LdapError(
                    ResultCode.INSUFFICIENT_ACCESS_RIGHTS,
                    f"read access to {target} denied",
                )
            return
        if isinstance(request, AddRequest):
            target = request.entry.dn
            touched = frozenset(n.lower() for n in request.entry.attributes.names())
        elif isinstance(request, ModifyRequest):
            target = request.dn
            touched = frozenset(m.attribute.lower() for m in request.modifications)
        elif isinstance(request, DeleteRequest):
            target, touched = request.dn, frozenset()
        elif isinstance(request, ModifyRdnRequest):
            target = request.dn
            touched = frozenset(a.lower() for a, _ in request.new_rdn.items())
        else:
            return
        if not self.decide(session, Rights.WRITE, target, touched):
            raise LdapError(
                ResultCode.INSUFFICIENT_ACCESS_RIGHTS,
                f"write access to {target} denied"
                + (f" (attributes: {', '.join(sorted(touched))})" if touched else ""),
            )
