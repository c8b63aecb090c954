"""Square grid with right/up moves, a stop action everywhere, and a reward
that decays with Euclidean distance to the nearest beacon."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MalformedStateError, NoParentsError
from .base import Environment, StateKey, log_sigmoid

RIGHT, UP, STOP = 0, 1, 2


@dataclass(frozen=True)
class GridEnv(Environment):
    side: int
    beacons: tuple[tuple[int, int], ...]
    kappa: float = 1.0
    delta: float = 2.0

    kind = "grid"
    all_states_terminal = True

    def __post_init__(self):
        if self.side < 2:
            raise ValueError("grid side must be >= 2")
        if not self.beacons:
            raise ValueError("grid needs at least one beacon")
        for b in self.beacons:
            if not (0 <= b[0] < self.side and 0 <= b[1] < self.side):
                raise ValueError(f"beacon {b} outside {self.side}x{self.side} grid")

    @property
    def max_arity(self) -> int:
        return 3

    @property
    def max_traj_len(self) -> int:
        return 2 * (self.side - 1) + 1

    def initial_key(self) -> StateKey:
        return (0, 0)

    def validate_key(self, s: StateKey) -> None:
        if (
            not isinstance(s, tuple)
            or len(s) != 2
            or not all(isinstance(v, int) for v in s)
            or not (0 <= s[0] < self.side and 0 <= s[1] < self.side)
        ):
            raise MalformedStateError(f"not a grid cell: {s!r}")

    def _children(self, s: StateKey) -> list:
        x, y = s
        out = []
        if x + 1 < self.side:
            out.append((RIGHT, (x + 1, y), False))
        if y + 1 < self.side:
            out.append((UP, (x, y + 1), False))
        out.append((STOP, None, True))
        return out

    def parents(self, s: StateKey) -> list:
        self.validate_key(s)
        x, y = s
        if (x, y) == (0, 0):
            raise NoParentsError("initial grid cell has no parents")
        out = []
        if x > 0:
            out.append(((x - 1, y), RIGHT))
        if y > 0:
            out.append(((x, y - 1), UP))
        return out

    def _is_terminal(self, s: StateKey) -> bool:
        return True

    def log_reward(self, s: StateKey) -> float:
        self.validate_key(s)
        x, y = s
        d_min = min(np.hypot(x - bx, y - by) for bx, by in self.beacons)
        return log_sigmoid(self.kappa * (self.delta - d_min))

    @property
    def feature_dim(self) -> int:
        return 2

    key_width = 2

    def _featurize_rows(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return rows / self.side

    def n_states_estimate(self) -> int:
        return self.side * self.side

    def structure(self) -> dict:
        return {"kind": self.kind, "side": self.side}
