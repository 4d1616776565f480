"""MetaComm core: the Update Manager, filters, synchronizer and facade."""

from .errorlog import AdminNotification, ErrorLog
from .filters import (
    UM_AGENT,
    ApplyResult,
    DeviceFilter,
    Filter,
    FilterError,
    LdapFilter,
    UmCrash,
)
from .mediator import MediatorError, VirtualMediator
from .metacomm import MetaComm, MetaCommConfig, PbxConfig
from .pipeline import (
    DeviceOutcome,
    DevicePlan,
    FailurePolicy,
    SequenceOutcome,
    UpdatePlan,
    UpdateSequencePipeline,
    merge_attrs,
)
from .queue import QueuedUpdate, UpdateQueue
from .sync import SyncReport, Synchronizer
from .update_manager import DeviceBinding, UpdateManager

__all__ = [
    "AdminNotification",
    "ApplyResult",
    "DeviceBinding",
    "DeviceFilter",
    "DeviceOutcome",
    "DevicePlan",
    "ErrorLog",
    "FailurePolicy",
    "Filter",
    "FilterError",
    "LdapFilter",
    "MediatorError",
    "MetaComm",
    "MetaCommConfig",
    "PbxConfig",
    "QueuedUpdate",
    "SequenceOutcome",
    "SyncReport",
    "Synchronizer",
    "UM_AGENT",
    "UmCrash",
    "UpdatePlan",
    "UpdateManager",
    "UpdateQueue",
    "UpdateSequencePipeline",
    "VirtualMediator",
    "merge_attrs",
]
