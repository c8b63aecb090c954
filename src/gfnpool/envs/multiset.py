"""Multisets of a fixed target size built by adding dictionary items one at a
time; the log-reward is the sum of per-item values."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from ..errors import MalformedStateError, NoParentsError, NotTerminalError
from .base import Environment, StateKey, int_key_matrix


@dataclass(frozen=True)
class MultisetEnv(Environment):
    values: tuple[float, ...]
    target_size: int

    kind = "multiset"

    def __post_init__(self):
        if self.target_size < 1:
            raise ValueError("target size must be >= 1")
        if len(self.values) < 1:
            raise ValueError("dictionary must be non-empty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("item values must be finite")
        # converted once: np.dot over a tuple converts it on every call
        object.__setattr__(self, "_values", np.asarray(self.values, dtype=np.float64))

    @property
    def dict_size(self) -> int:
        return len(self.values)

    @property
    def max_arity(self) -> int:
        return self.dict_size + 1

    @property
    def max_traj_len(self) -> int:
        return self.target_size + 1

    def initial_key(self) -> StateKey:
        return (0,) * self.dict_size

    def validate_key(self, s: StateKey) -> None:
        if (
            not isinstance(s, tuple)
            or len(s) != self.dict_size
            or not all(isinstance(c, int) and c >= 0 for c in s)
            or sum(s) > self.target_size
        ):
            raise MalformedStateError(f"not a multiset count vector: {s!r}")

    def _children(self, s: StateKey) -> list:
        if sum(s) == self.target_size:
            return [(self.stop_action, None, True)]
        return [
            (u, s[:u] + (s[u] + 1,) + s[u + 1 :], False) for u in range(self.dict_size)
        ]

    @property
    def key_width(self) -> int:
        return self.dict_size

    def _children_rows(self, rows: np.ndarray, lengths: np.ndarray) -> tuple:
        k = self.dict_size
        full = rows.sum(axis=1) == self.target_size
        legal = np.zeros((len(rows), self.max_arity), dtype=bool)
        legal[~full, :k] = True
        stop = np.zeros_like(legal)
        stop[full, k] = True
        # k copies of each open row, the u-th with item u added
        child = np.repeat(rows[~full].astype(np.min_scalar_type(self.target_size)), k, axis=0)
        child.reshape(-1, k, k)[:, np.arange(k), np.arange(k)] += 1
        return child, np.full(len(child), k), legal, stop

    def parents(self, s: StateKey) -> list:
        self.validate_key(s)
        if sum(s) == 0:
            raise NoParentsError("empty multiset has no parents")
        return [
            (s[:u] + (s[u] - 1,) + s[u + 1 :], u)
            for u in range(self.dict_size)
            if s[u] > 0
        ]

    def _is_terminal(self, s: StateKey) -> bool:
        return sum(s) == self.target_size

    def log_reward(self, s: StateKey) -> float:
        if not self.is_terminal(s):
            raise NotTerminalError(f"multiset of size {sum(s)} < {self.target_size}")
        return float(np.dot(s, self._values))

    def _log_rewards(self, keys: list) -> np.ndarray:
        got = int_key_matrix(keys, self.key_width)
        if got is None or np.any(got[1] != self.dict_size):
            return None
        counts = got[0]
        if np.any(counts < 0) or np.any(counts.sum(axis=1) != self.target_size):
            return None
        return self._log_reward_rows(*got)

    def _log_reward_rows(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        # one dot per row, summed as the scalar's np.dot sums; a matrix
        # product or einsum sums in another order
        return np.vecdot(rows.astype(np.float64), self._values)

    @property
    def feature_dim(self) -> int:
        return self.dict_size

    def _featurize_rows(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return rows / self.target_size

    def n_states_estimate(self) -> int:
        # count vectors with sum <= S over |U| items
        return comb(self.dict_size + self.target_size, self.target_size)

    def structure(self) -> dict:
        return {
            "kind": self.kind,
            "dict_size": self.dict_size,
            "target_size": self.target_size,
        }
