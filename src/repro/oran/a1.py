"""A1 interface: policy management from the non-RT RIC to the near-RT RIC.

Models the A1-P policy service: the SMO/non-RT RIC creates typed policy
instances; the near-RT RIC validates them against the declared schema and
delivers them to target xApps. 6G-XSec uses this to push detection
thresholds and response policies down to MobiWatch at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.oran.ric import NearRtRic


class A1Error(ValueError):
    """Raised on invalid policies."""


@dataclass(frozen=True)
class A1PolicyType:
    """Schema for a class of policies."""

    policy_type_id: int
    name: str
    # key -> python type the value must have
    schema: dict = field(default_factory=dict)

    def validate(self, policy: dict) -> None:
        for key, expected in self.schema.items():
            if key not in policy:
                raise A1Error(f"policy missing required key {key!r}")
            if not isinstance(policy[key], expected):
                raise A1Error(
                    f"policy key {key!r} must be {expected.__name__}, "
                    f"got {type(policy[key]).__name__}"
                )
        unknown = set(policy) - set(self.schema)
        if unknown:
            raise A1Error(f"policy has unknown keys {sorted(unknown)}")


# The policy types 6G-XSec registers.
DETECTION_POLICY_TYPE = A1PolicyType(
    policy_type_id=20008,
    name="xsec-detection-policy",
    schema={"threshold_percentile": float, "window_size": int},
)

RESPONSE_POLICY_TYPE = A1PolicyType(
    policy_type_id=20009,
    name="xsec-response-policy",
    schema={"auto_release": bool, "auto_blocklist": bool},
)


class A1Interface:
    """Non-RT RIC side of A1: create and push policy instances."""

    def __init__(self, ric: "NearRtRic") -> None:
        self.ric = ric
        self._types: dict[int, A1PolicyType] = {}
        # (type_id, instance_id) -> policy dict
        self._instances: dict[tuple[int, str], dict] = {}

    def register_policy_type(self, policy_type: A1PolicyType) -> None:
        if policy_type.policy_type_id in self._types:
            raise A1Error(f"policy type {policy_type.policy_type_id} already registered")
        self._types[policy_type.policy_type_id] = policy_type

    def policy_types(self) -> list[int]:
        return sorted(self._types)

    def put_policy(
        self, policy_type_id: int, instance_id: str, policy: dict, target_xapp: str
    ) -> None:
        """Validate and deliver a policy instance to an xApp."""
        policy_type = self._types.get(policy_type_id)
        if policy_type is None:
            raise A1Error(f"unknown policy type {policy_type_id}")
        policy_type.validate(policy)
        self._instances[(policy_type_id, instance_id)] = dict(policy)
        self.ric.deliver_policy(target_xapp, policy_type_id, dict(policy))

    def get_policy(self, policy_type_id: int, instance_id: str) -> Optional[dict]:
        return self._instances.get((policy_type_id, instance_id))

    def delete_policy(self, policy_type_id: int, instance_id: str) -> bool:
        return self._instances.pop((policy_type_id, instance_id), None) is not None
