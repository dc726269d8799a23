"""5G identifier spaces used by the MobiFlow telemetry (Table 1 of the paper).

- **RNTI** — Radio Network Temporary Identifier, a 16-bit L2 identifier the
  DU assigns per RRC connection. The BTS DoS attack manifests as a rapid
  stream of fresh RNTIs.
- **5G-S-TMSI / 5G-TMSI** — temporary subscriber identity assigned by the
  AMF; reused TMSIs across sessions are the Blind DoS signature.
- **SUPI** — Subscription Permanent Identifier (IMSI-format); appearing in
  plaintext on the air interface is the identity-extraction signature.
- **SUCI** — concealed SUPI, what a compliant UE sends instead.
- **5G-GUTI** — globally unique temporary identity wrapping the 5G-TMSI.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Set

# C-RNTI value range per 3GPP TS 38.321 (values outside are reserved).
RNTI_MIN = 0x0001
RNTI_MAX = 0xFFEF

TMSI_BITS = 32


class IdentifierExhausted(RuntimeError):
    """Raised when an allocator runs out of free identifiers."""


@dataclass(frozen=True)
class Supi:
    """Subscription Permanent Identifier in IMSI format (MCC+MNC+MSIN)."""

    mcc: str
    mnc: str
    msin: str

    def __post_init__(self) -> None:
        if not (self.mcc.isdigit() and len(self.mcc) == 3):
            raise ValueError(f"MCC must be 3 digits, got {self.mcc!r}")
        if not (self.mnc.isdigit() and len(self.mnc) in (2, 3)):
            raise ValueError(f"MNC must be 2-3 digits, got {self.mnc!r}")
        if not (self.msin.isdigit() and 9 <= len(self.msin) <= 10):
            raise ValueError(f"MSIN must be 9-10 digits, got {self.msin!r}")

    def __str__(self) -> str:
        return f"imsi-{self.mcc}{self.mnc}{self.msin}"

    @classmethod
    def parse(cls, text: str) -> "Supi":
        if not text.startswith("imsi-"):
            raise ValueError(f"not an imsi-format SUPI: {text!r}")
        digits = text[len("imsi-") :]
        if len(digits) < 14 or not digits.isdigit():
            raise ValueError(f"malformed SUPI digits: {digits!r}")
        return cls(mcc=digits[:3], mnc=digits[3:5], msin=digits[5:])


def conceal_supi(supi: Supi, home_network_key: bytes = b"hn-public-key") -> str:
    """Produce a SUCI — a one-way concealment of the SUPI's MSIN.

    Real networks use ECIES (Profile A/B); we substitute a keyed hash, which
    preserves the property the detector relies on: the permanent identifier
    never appears on the air interface in a compliant flow, and two
    registrations by the same UE yield unlinkable SUCIs only if the network
    rotates the concealment — we keep it deterministic so tests can assert
    stability.
    """
    digest = hashlib.sha256(bytes(str(supi), "utf-8") + home_network_key).hexdigest()
    return f"suci-{supi.mcc}-{supi.mnc}-{digest[:16]}"


@dataclass(frozen=True)
class Guti:
    """5G Globally Unique Temporary Identity (simplified)."""

    plmn: str
    amf_region: int
    amf_set: int
    amf_pointer: int
    tmsi: int

    def s_tmsi(self) -> int:
        """Derive the 5G-S-TMSI (AMF set + pointer + TMSI), truncated."""
        return ((self.amf_set & 0x3FF) << 38) | ((self.amf_pointer & 0x3F) << 32) | (
            self.tmsi & 0xFFFFFFFF
        )

    def __str__(self) -> str:
        return (
            f"guti-{self.plmn}-{self.amf_region:02x}{self.amf_set:03x}"
            f"{self.amf_pointer:02x}-{self.tmsi:08x}"
        )


_HEX_DIGITS = frozenset("0123456789abcdef")


def tmsi_of_guti(guti: str) -> Optional[int]:
    """The 5G-TMSI a GUTI string carries, or None when it carries none.

    The strict inverse of :meth:`Guti.__str__` on the TMSI: the text after
    the last ``-`` must be exactly eight lowercase hex digits (``int(., 16)``
    would also take ``+ff``, ``0x1f``, `` 1f`` or ``1_f``).
    """
    if type(guti) is not str:
        return None
    _, dash, tail = guti.rpartition("-")
    if not dash or len(tail) != 8 or not _HEX_DIGITS.issuperset(tail):
        return None
    return int(tail, 16)


class RntiAllocator:
    """Allocates C-RNTIs the way a DU does: random free value per connection."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._in_use: Set[int] = set()

    @property
    def in_use(self) -> frozenset[int]:
        return frozenset(self._in_use)

    def allocate(self) -> int:
        if len(self._in_use) >= (RNTI_MAX - RNTI_MIN + 1):
            raise IdentifierExhausted("RNTI space exhausted")
        while True:
            rnti = self._rng.randint(RNTI_MIN, RNTI_MAX)
            if rnti not in self._in_use:
                self._in_use.add(rnti)
                return rnti

    def release(self, rnti: int) -> None:
        self._in_use.discard(rnti)


class TmsiAllocator:
    """Allocates 32-bit 5G-TMSIs; the AMF assigns one per registration."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._in_use: Set[int] = set()

    def allocate(self) -> int:
        if len(self._in_use) >= 2**TMSI_BITS:
            raise IdentifierExhausted("TMSI space exhausted")
        while True:
            tmsi = self._rng.getrandbits(TMSI_BITS)
            if tmsi not in self._in_use:
                self._in_use.add(tmsi)
                return tmsi

    def release(self, tmsi: int) -> None:
        self._in_use.discard(tmsi)


class GutiAllocator:
    """Wraps a :class:`TmsiAllocator` to mint full 5G-GUTIs."""

    def __init__(
        self,
        rng: random.Random,
        plmn: str = "00101",
        amf_region: int = 1,
        amf_set: int = 1,
        amf_pointer: int = 0,
    ) -> None:
        self._tmsis = TmsiAllocator(rng)
        self._plmn = plmn
        self._amf_region = amf_region
        self._amf_set = amf_set
        self._amf_pointer = amf_pointer

    def allocate(self) -> Guti:
        return Guti(
            plmn=self._plmn,
            amf_region=self._amf_region,
            amf_set=self._amf_set,
            amf_pointer=self._amf_pointer,
            tmsi=self._tmsis.allocate(),
        )

    def release(self, guti: Optional[Guti]) -> None:
        if guti is not None:
            self._tmsis.release(guti.tmsi)
