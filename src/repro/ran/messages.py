"""Base machinery for simulated 3GPP control-plane messages.

Every RRC and NAS message is a dataclass registered here with a stable
message name (the same names the MobiFlow telemetry reports and the LLM
prompt displays). Messages serialize to TLV bytes via :mod:`repro.wire` so
they can cross the simulated F1/NG interfaces and be captured as pcap
records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Optional, Type, TypeVar

from repro import wire


class Direction(enum.Enum):
    """Link direction of a control message."""

    UPLINK = "UL"
    DOWNLINK = "DL"


class Protocol(enum.Enum):
    """Protocol layer of a control message."""

    RRC = "RRC"
    NAS = "NAS"


class MessageError(ValueError):
    """Raised when a message fails to encode/decode."""


_REGISTRY: Dict[str, Type["Message"]] = {}

M = TypeVar("M", bound="Message")


def _member_of(enum_cls: Type[enum.Enum], optional: bool) -> Callable[[Any], Any]:
    """The member a wire value names (None for None, when ``optional``).
    The value must be of the member's own type: ``CipherAlg(True)`` is
    NEA1, which is written as 1, not as True."""
    members = {(type(member.value), member.value): member for member in enum_cls}
    if optional:
        members[type(None), None] = None

    def convert(value: Any) -> Any:
        try:
            return members[type(value), value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"{value!r} is not a {enum_cls.__name__} value") from None

    return convert


def _enum_converter(annotation: Any) -> Optional[Callable[[Any], Any]]:
    """What rehydrates a field's raw wire value, or None for plain fields."""
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        return _member_of(annotation, optional=False)
    # Annotations are strings under ``from __future__ import annotations``;
    # the registered names cover ``Optional[...]``, so None passes through.
    enum_cls = _ENUM_FIELD_TYPES.get(annotation) if isinstance(annotation, str) else None
    if enum_cls is None:
        return None
    return _member_of(enum_cls, optional=True)


# Per-class codec plans (key TLVs, envelope prefix, enum converters):
# ``to_wire`` writes straight from attributes, ``from_wire`` reads back
# exactly those bytes straight into constructor arguments.
_PLANS = wire.EnvelopePlans(
    "msg", "message", lambda cls: cls.NAME, _REGISTRY, _enum_converter
)


@dataclass
class Message:
    """Base class for control-plane messages.

    Subclasses set ``NAME`` (wire identifier, matches telemetry naming),
    ``PROTOCOL`` and ``DIRECTION`` as class attributes and declare their
    information elements as dataclass fields.
    """

    NAME: ClassVar[str] = ""
    PROTOCOL: ClassVar[Protocol] = Protocol.RRC
    DIRECTION: ClassVar[Direction] = Direction.UPLINK

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.NAME:
            existing = _REGISTRY.get(cls.NAME)
            if existing is not None and existing is not cls:
                raise MessageError(f"duplicate message name {cls.NAME!r}")
            _REGISTRY[cls.NAME] = cls

    @property
    def name(self) -> str:
        return type(self).NAME

    @property
    def protocol(self) -> Protocol:
        return type(self).PROTOCOL

    @property
    def direction(self) -> Direction:
        return type(self).DIRECTION

    def fields(self) -> Dict[str, Any]:
        """Return the message's information elements as a plain dict."""
        out: Dict[str, Any] = {}
        for name in _PLANS.plan(type(self)).names:
            value = getattr(self, name)
            if isinstance(value, enum.Enum):
                value = value.value
            out[name] = value
        return out

    def to_wire(self) -> bytes:
        """Serialize to TLV bytes: ``{"msg": NAME, "ie": {...}}``."""
        return _PLANS.plan(type(self)).encode(self)

    @staticmethod
    def from_wire(data: bytes) -> "Message":
        """Decode bytes back into the registered message class. Only the
        bytes :meth:`to_wire` writes are accepted; any other is a
        :class:`MessageError`."""
        try:
            return _PLANS.decode(bytes(data))
        except wire.WireError as exc:
            raise MessageError(str(exc)) from exc

    @staticmethod
    def registered_names() -> list[str]:
        return sorted(_REGISTRY)

    @staticmethod
    def lookup(name: str) -> Type["Message"]:
        cls = _REGISTRY.get(name)
        if cls is None:
            raise MessageError(f"unknown message name {name!r}")
        return cls


# Dataclass field annotations are strings under ``from __future__ import
# annotations``; map the enum type names used by message fields so
# ``from_wire`` can rehydrate them without evaluating annotations.
_ENUM_FIELD_TYPES: Dict[str, Type[enum.Enum]] = {}


def register_enum_field_type(enum_cls: Type[enum.Enum]) -> None:
    """Register an enum so string-annotated fields decode back to it."""
    _ENUM_FIELD_TYPES[enum_cls.__name__] = enum_cls
    _ENUM_FIELD_TYPES[f"Optional[{enum_cls.__name__}]"] = enum_cls
    _PLANS.clear()  # plans built before this registration missed the enum
