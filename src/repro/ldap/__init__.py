"""A from-scratch, in-memory LDAP directory service.

This package is the directory substrate of the MetaComm reproduction: DNs
and RDNs, schema-checked entries, RFC 2254 search filters, LDIF, atomic
single-entry update operations, and multi-master replication.  See
DESIGN.md section 2 for how it substitutes for the wire-protocol servers
the paper used.
"""

from .backend import (
    Backend,
    ChangeRecord,
    ChangeType,
    Changelog,
    ChangelogTruncatedError,
    Csn,
    Transaction,
)
from .client import LdapConnection
from .dn import DN, Ava, Rdn
from .entry import Attributes, Entry
from .filter import Filter, matches, parse_filter
from .ldif import (
    LdifChange,
    apply_changes,
    entry_to_ldif,
    parse_change_ldif,
    parse_ldif,
    write_change_ldif,
    write_ldif,
)
from .net import LdapTcpServer, RemoteLdapHandler
from .protocol import (
    AddRequest,
    BindRequest,
    CompareRequest,
    DeleteRequest,
    LdapRequest,
    LdapResponse,
    LdapResult,
    ModOp,
    Modification,
    ModifyRdnRequest,
    ModifyRequest,
    Scope,
    SearchRequest,
    Session,
    UnbindRequest,
)
from .replication import ReplicationEngine
from .result import (
    BusyError,
    EntryAlreadyExistsError,
    InvalidDnError,
    LdapError,
    NoSuchObjectError,
    ResultCode,
    SchemaViolationError,
    UnwillingToPerformError,
)
from .schema import AttributeType, ClassKind, ObjectClass, Schema, define_attributes
from .server import LdapServer

__all__ = [
    "AddRequest", "AttributeType", "Attributes", "Ava", "Backend",
    "BindRequest", "BusyError", "ChangeRecord", "ChangeType", "Changelog",
    "ChangelogTruncatedError", "ClassKind",
    "CompareRequest", "Csn", "DN", "DeleteRequest", "Entry",
    "EntryAlreadyExistsError", "Filter", "InvalidDnError", "LdapConnection",
    "LdapError", "LdapRequest", "LdapTcpServer", "LdifChange", "LdapResponse", "LdapResult", "LdapServer",
    "ModOp", "Modification", "ModifyRdnRequest", "ModifyRequest",
    "NoSuchObjectError", "ObjectClass", "Rdn", "RemoteLdapHandler", "ReplicationEngine",
    "ResultCode", "Schema", "SchemaViolationError", "Scope", "SearchRequest",
    "Session", "Transaction", "UnbindRequest", "UnwillingToPerformError",
    "apply_changes", "define_attributes", "entry_to_ldif", "matches",
    "parse_change_ldif", "parse_filter", "parse_ldif", "write_change_ldif",
    "write_ldif",
]
