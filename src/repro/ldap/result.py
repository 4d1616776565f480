"""LDAP result codes and protocol errors.

The codes mirror the numeric assignments of RFC 2251 section 4.1.10 so that
users familiar with real LDAP servers see familiar diagnostics.  Only the
codes that the MetaComm stack can actually produce are defined; adding more
is a one-line change.
"""

from __future__ import annotations

import enum


class ResultCode(enum.IntEnum):
    """Numeric LDAP result codes (RFC 2251 compatible subset)."""

    SUCCESS = 0
    OPERATIONS_ERROR = 1
    PROTOCOL_ERROR = 2
    TIME_LIMIT_EXCEEDED = 3
    SIZE_LIMIT_EXCEEDED = 4
    COMPARE_FALSE = 5
    COMPARE_TRUE = 6
    UNDEFINED_ATTRIBUTE_TYPE = 17
    CONSTRAINT_VIOLATION = 19
    ATTRIBUTE_OR_VALUE_EXISTS = 20
    INVALID_ATTRIBUTE_SYNTAX = 21
    NO_SUCH_OBJECT = 32
    INVALID_DN_SYNTAX = 34
    INVALID_CREDENTIALS = 49
    INSUFFICIENT_ACCESS_RIGHTS = 50
    BUSY = 51
    UNAVAILABLE = 52
    UNWILLING_TO_PERFORM = 53
    NAMING_VIOLATION = 64
    OBJECT_CLASS_VIOLATION = 65
    NOT_ALLOWED_ON_NON_LEAF = 66
    NOT_ALLOWED_ON_RDN = 67
    ENTRY_ALREADY_EXISTS = 68
    OBJECT_CLASS_MODS_PROHIBITED = 69
    OTHER = 80


class LdapError(Exception):
    """An LDAP operation failed.

    Carries the :class:`ResultCode` plus a human-readable diagnostic
    message, exactly like the ``resultCode``/``errorMessage`` pair of an
    LDAP response PDU.
    """

    def __init__(self, code: ResultCode, message: str = "", matched_dn: str = ""):
        super().__init__(f"{code.name}({int(code)}): {message}")
        self.code = code
        self.message = message
        self.matched_dn = matched_dn


class NoSuchObjectError(LdapError):
    def __init__(self, message: str = "", matched_dn: str = ""):
        super().__init__(ResultCode.NO_SUCH_OBJECT, message, matched_dn)


class EntryAlreadyExistsError(LdapError):
    def __init__(self, message: str = ""):
        super().__init__(ResultCode.ENTRY_ALREADY_EXISTS, message)


class InvalidDnError(LdapError):
    def __init__(self, message: str = ""):
        super().__init__(ResultCode.INVALID_DN_SYNTAX, message)


class SchemaViolationError(LdapError):
    def __init__(self, message: str = ""):
        super().__init__(ResultCode.OBJECT_CLASS_VIOLATION, message)


class NotAllowedOnNonLeafError(LdapError):
    def __init__(self, message: str = ""):
        super().__init__(ResultCode.NOT_ALLOWED_ON_NON_LEAF, message)


class UnwillingToPerformError(LdapError):
    def __init__(self, message: str = ""):
        super().__init__(ResultCode.UNWILLING_TO_PERFORM, message)


class BusyError(LdapError):
    """The server (or the LTAP gateway) is refusing writes, e.g. during
    quiesce or while an entry is locked by trigger processing."""

    def __init__(self, message: str = ""):
        super().__init__(ResultCode.BUSY, message)


class ServerBusyError(BusyError):
    """Admission control turned the write away: the Update Manager's
    device links and coordinator lanes are full, and the system
    prefers a typed busy answer over unbounded queueing.  Clients should
    back off and retry; the rejected write never reached the directory."""
