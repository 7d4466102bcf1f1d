"""Small immutable value types shared across the library.

Component fields hold floats or equal-shaped numpy arrays; every function
that consumes these states is written elementwise, so a single dataclass
instance can carry a whole time series.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhaseState:
    """Point (or series of points) in the commutative frame.

    Q1, Q2 are positions, P1, P2 the conjugate momenta: the ordered basis
    z = (Q1, Q2, P1, P2) of the frame's 4x4 matrices.
    """

    Q1: object
    Q2: object
    P1: object
    P2: object

    def as_array(self) -> np.ndarray:
        """Components broadcast to one shape, stacked on a last axis of length 4."""
        fields = (self.Q1, self.Q2, self.P1, self.P2)
        return np.stack(
            np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in fields)), axis=-1
        )


# The old name of the commutative initial state; only perfbench/harness.py,
# which builds it positionally, still imports it.
InitialConditions = PhaseState


@dataclass(frozen=True)
class NCState:
    """Point in the noncommutative frame: positions q1, q2, momenta p1, p2."""

    q1: object
    q2: object
    p1: object
    p2: object
