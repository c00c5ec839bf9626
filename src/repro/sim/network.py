"""Network latency model.

Message hops (client <-> event layer <-> cluster nodes) pay a sampled
one-way delay: a fixed propagation/transfer base plus an exponential
jitter tail.  The exponential tail is what produces the realistic p99
inflation over the average that the paper's Table 3 shows (p99 about
twice the average under healthy load).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class HopModel:
    """One-way delay distribution for a network hop (seconds)."""

    base: float = 0.0013
    jitter_mean: float = 0.00025

    def sample(self, rng: random.Random) -> float:
        return self.base + rng.expovariate(1.0 / self.jitter_mean)
