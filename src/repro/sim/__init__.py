"""Discrete-event simulation substrate.

Every other subsystem (the 5G RAN, the O-RAN control plane, the attack
runners) is built on this small discrete-event engine: a priority queue of
timestamped events, a simulated clock, and named deterministic RNG streams so
that experiments are reproducible bit-for-bit from a single seed.
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.entity import Entity
from repro.sim.rng import RngRegistry

__all__ = ["Event", "EventQueue", "Simulator", "Entity", "RngRegistry"]
