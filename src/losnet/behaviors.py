"""Task sites of the subgroups and the slot arithmetic of circle formations.

The nominal controller itself is `sim.nominal_controls`: a proportional pull
towards each robot's target (its subgroup's rendezvous point, or its slot on
the formation circle) with a speed cap. It is deliberately simple; the
simulation perturbs it as little as the certificates allow, so the
interesting behavior comes from the filter, not from the nominal controller.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class TaskSite:
    """Target of one subgroup: a rendezvous point or a circle to form."""

    position: np.ndarray
    kind: str = "rendezvous"
    radius: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.position, dtype=np.float64).ravel()
        p.setflags(write=False)
        object.__setattr__(self, "position", p)
        if self.kind not in ("rendezvous", "circle"):
            raise ValueError(f"unknown site kind {self.kind!r}")
        if self.kind == "circle" and self.radius <= 0:
            raise ValueError("circle sites need a positive radius")


def circle_slot(site: TaskSite, slot_index: int, n_slots: int) -> np.ndarray:
    """Slot position on the formation circle; slot angles split the circle
    evenly starting from angle zero."""
    theta = 2.0 * math.pi * slot_index / n_slots
    return site.position + site.radius * np.array([math.cos(theta), math.sin(theta)])
