"""Token sequences up to a maximum length; appending may halt early via a
terminating action, and the log-reward couples position and token scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MalformedStateError, NoParentsError
from .base import Environment, StateKey, int_key_matrix


@dataclass(frozen=True)
class SequenceEnv(Environment):
    pos_scores: tuple[float, ...]  # one score per position, length = max_len
    token_scores: tuple[float, ...]  # one score per token

    kind = "sequence"
    all_states_terminal = True

    def __post_init__(self):
        if len(self.pos_scores) < 1:
            raise ValueError("max length must be >= 1")
        if len(self.token_scores) < 1:
            raise ValueError("token set must be non-empty")
        if not (np.all(np.isfinite(self.pos_scores)) and np.all(np.isfinite(self.token_scores))):
            raise ValueError("scores must be finite")

    @property
    def max_len(self) -> int:
        return len(self.pos_scores)

    @property
    def num_tokens(self) -> int:
        return len(self.token_scores)

    @property
    def max_arity(self) -> int:
        return self.num_tokens + 1

    @property
    def max_traj_len(self) -> int:
        return self.max_len + 1

    def initial_key(self) -> StateKey:
        return ()

    def validate_key(self, s: StateKey) -> None:
        if (
            not isinstance(s, tuple)
            or len(s) > self.max_len
            or not all(isinstance(u, int) and 0 <= u < self.num_tokens for u in s)
        ):
            raise MalformedStateError(f"not a token sequence: {s!r}")

    def _children(self, s: StateKey) -> list:
        out = []
        if len(s) < self.max_len:
            out.extend((u, s + (u,), False) for u in range(self.num_tokens))
        out.append((self.stop_action, None, True))
        return out

    @property
    def key_width(self) -> int:
        return self.max_len

    def _children_rows(self, rows: np.ndarray, lengths: np.ndarray) -> tuple:
        t = self.num_tokens
        grow = lengths < self.max_len
        legal = np.zeros((len(rows), self.max_arity), dtype=bool)
        legal[grow, :t] = True
        stop = np.zeros_like(legal)
        stop[:, t] = True
        # t copies of each growing row, the u-th with token u appended
        child = np.repeat(rows[grow].astype(np.min_scalar_type(t - 1)), t, axis=0)
        child_lengths = np.repeat(lengths[grow], t)
        child[np.arange(len(child)), child_lengths] = np.tile(np.arange(t), np.count_nonzero(grow))
        return child, child_lengths + 1, legal, stop

    def parents(self, s: StateKey) -> list:
        self.validate_key(s)
        if not s:
            raise NoParentsError("empty sequence has no parents")
        return [(s[:-1], s[-1])]

    def _is_terminal(self, s: StateKey) -> bool:
        return True

    def log_reward(self, s: StateKey) -> float:
        self.validate_key(s)
        return float(sum(self.pos_scores[i] * self.token_scores[u] for i, u in enumerate(s)))

    def _log_rewards(self, keys: list) -> np.ndarray:
        got = int_key_matrix(keys, self.key_width)
        if got is None or np.any(got[0] < 0) or np.any(got[0] >= self.num_tokens):
            return None
        return self._log_reward_rows(*got)

    def _log_reward_rows(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        # position by position, in the scalar's summation order; adding 0.0
        # past a key's end leaves its sum's bits unchanged
        tok = np.asarray(self.token_scores, dtype=np.float64)
        out = np.zeros(len(rows))
        for i, p in enumerate(self.pos_scores):
            out += np.where(i < lengths, p * tok[rows[:, i]], 0.0)
        return out

    @property
    def feature_dim(self) -> int:
        # per-position one-hot over tokens plus a blank symbol, then length
        return self.max_len * (self.num_tokens + 1) + 1

    def _featurize_rows(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        pos = np.arange(self.max_len)
        # blank beyond length, as an int64: the blank need not fit the rows' dtype
        sym = np.where(pos < lengths[:, None], rows, np.int64(self.num_tokens))
        out = np.zeros((len(rows), self.feature_dim))
        out[np.arange(len(rows))[:, None], pos * (self.num_tokens + 1) + sym] = 1.0
        out[:, -1] = lengths / self.max_len
        return out

    def n_states_estimate(self) -> int:
        return sum(self.num_tokens**k for k in range(self.max_len + 1))

    def structure(self) -> dict:
        return {"kind": self.kind, "max_len": self.max_len, "num_tokens": self.num_tokens}
