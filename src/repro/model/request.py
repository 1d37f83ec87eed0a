"""Read/write requests and their executed forms.

Paper §3.1: *"A schedule is a finite sequence of read-write requests to
the object, each of which is issued by a processor."*  This module
defines the request objects and the *executed request* — a request
paired with its execution set and (for reads) the saving-read flag.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.types import ProcessorId, ProcessorSet, processor_set


class RequestKind(enum.Enum):
    """The two request kinds of the model."""

    READ = "r"
    WRITE = "w"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Request:
    """A read or write request issued by a processor.

    The paper writes ``r1`` for a read issued by processor 1 and ``w2``
    for a write issued by processor 2; :meth:`parse` accepts exactly
    this notation.
    """

    kind: RequestKind
    processor: ProcessorId

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ConfigurationError(
                f"processor ids must be non-negative, got {self.processor}"
            )

    @property
    def is_read(self) -> bool:
        return self.kind is RequestKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is RequestKind.WRITE

    _TOKEN = re.compile(r"^([rw])(\d+)$")

    @classmethod
    def parse(cls, token: str) -> "Request":
        """Parse a single token in the paper's notation.

        >>> Request.parse("r1")
        Request(kind=<RequestKind.READ: 'r'>, processor=1)
        >>> Request.parse("w42").is_write
        True
        """
        match = cls._TOKEN.match(token.strip())
        if match is None:
            raise ConfigurationError(f"cannot parse request token {token!r}")
        kind = RequestKind.READ if match.group(1) == "r" else RequestKind.WRITE
        return cls(kind, int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.kind.value}{self.processor}"


#: One shared instance per (kind, processor), built on first use.
_INTERNED: dict[tuple[RequestKind, int], Request] = {}


def _interned(kind: RequestKind, processor: ProcessorId) -> Request:
    """The shared request for ``(kind, processor)``.

    ``Request`` is frozen and slotted, so generators may hand out one
    object per (kind, processor) instead of one per position — equality
    and hashing are by value either way.  Only plain ``int`` ids are
    interned: ``True`` or a numpy integer hashes like the int it
    equals, and must not become the instance every later caller gets.
    """
    if type(processor) is not int:
        return Request(kind, processor)
    key = (kind, processor)
    request = _INTERNED.get(key)
    if request is None:
        request = _INTERNED[key] = Request(kind, processor)
    return request


def read(processor: ProcessorId) -> Request:
    """The (shared) read request issued by ``processor``."""
    return _interned(RequestKind.READ, processor)


def write(processor: ProcessorId) -> Request:
    """The (shared) write request issued by ``processor``."""
    return _interned(RequestKind.WRITE, processor)


@dataclass(frozen=True, slots=True)
class ExecutedRequest:
    """A request together with its execution set and saving flag.

    Paper §3.1: *"Each request is mapped to a set of processors, namely
    the execution set of the request."*  A read that stores the object
    in the reader's local database is a *saving-read*, denoted by an
    underline in the paper and by ``saving=True`` here.
    """

    request: Request
    execution_set: ProcessorSet
    saving: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "execution_set", processor_set(self.execution_set))
        if not self.execution_set:
            raise ConfigurationError(
                f"execution set of {self.request} must be non-empty"
            )
        if self.saving and not self.request.is_read:
            raise ConfigurationError("only read requests can be saving-reads")

    @property
    def processor(self) -> ProcessorId:
        """The processor that issued the request."""
        return self.request.processor

    @property
    def is_read(self) -> bool:
        return self.request.is_read

    @property
    def is_write(self) -> bool:
        return self.request.is_write

    @property
    def is_saving_read(self) -> bool:
        return self.request.is_read and self.saving

    def __str__(self) -> str:
        members = ",".join(str(p) for p in sorted(self.execution_set))
        marker = "_" if self.saving else ""
        return f"{marker}{self.request}{{{members}}}"
