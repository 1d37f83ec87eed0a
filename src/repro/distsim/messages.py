"""Message types of the distributed protocols.

Paper §1.2 distinguishes two message classes:

* **control messages** — short: object id and operation only.  Read
  requests, invalidations, acknowledgements, quorum solicitations.
* **data messages** — carry the object content in addition to the
  control fields.

The class of a message determines its charge (``c_c`` vs ``c_d``); the
network layer counts messages by class so simulation totals can be
compared against the analytic cost model unit-for-unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.storage.versions import ObjectVersion
from repro.types import ProcessorId


class MessageClass(enum.Enum):
    """Pricing class of a message."""

    CONTROL = "control"
    DATA = "data"


@dataclass(frozen=True, slots=True)
class Message:
    """Base class: every message knows its pricing class."""

    sender: ProcessorId
    receiver: ProcessorId

    #: Overridden by data-carrying subclasses.
    message_class = MessageClass.CONTROL

    def describe(self) -> str:
        return (
            f"{type(self).__name__}({self.sender} -> {self.receiver})"
        )


@dataclass(frozen=True, slots=True)
class ReadRequest(Message):
    """Control: 'send me the latest version' (paper §1.2's example)."""

    request_id: int = 0


@dataclass(frozen=True, slots=True)
class Invalidate(Message):
    """Control: 'your copy is obsolete' (sent along DA join-lists)."""

    version_number: int = -1
    request_id: int = 0


@dataclass(frozen=True, slots=True)
class VersionInquiry(Message):
    """Control: 'what version number do you hold?' (quorum reads)."""

    request_id: int = 0


@dataclass(frozen=True, slots=True)
class VersionReport(Message):
    """Control: the reply to a :class:`VersionInquiry` — carries only a
    version *number* (a timestamp), not the object content."""

    request_id: int = 0
    version_number: int = -1
    holds_copy: bool = False


@dataclass(frozen=True, slots=True)
class DataTransfer(Message):
    """Data: carries a full object version between processors."""

    version: Optional[ObjectVersion] = None
    request_id: int = 0
    save_copy: bool = False

    message_class = MessageClass.DATA
