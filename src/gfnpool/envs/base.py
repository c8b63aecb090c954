"""Common contract for sampling environments.

Every environment is a graded DAG: the initial state has depth 0 and every
non-stop transition increases depth by exactly 1. All concrete environments
here satisfy this, and the breadth-first enumerator in `space.py` relies on
it to produce a topological order, and its level walk to find equal keys
within one level.

States are identified by canonical hashable keys. Keys of equal states are
identical Python objects under `==`, and canonicalization is idempotent.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from itertools import chain

import numpy as np

from ..errors import UnsupportedFeaturizationError

StateKey = tuple

# children() reports each transition as (action_id, child_key, is_stop);
# stop transitions lead to the absorbing sink and carry child_key None.
Transition = "tuple[int, StateKey | None, bool]"


class Environment(ABC):
    """Immutable state DAG with per-terminal rewards."""

    kind: str = "abstract"
    all_states_terminal: bool = False  # True when every state has a stop edge

    @property
    @abstractmethod
    def max_arity(self) -> int:
        """Width of the action head; the stop action is the last slot."""

    @property
    def stop_action(self) -> int:
        return self.max_arity - 1

    @property
    @abstractmethod
    def max_traj_len(self) -> int:
        """Hard upper bound on transitions per trajectory (cycle guard)."""

    @abstractmethod
    def initial_key(self) -> StateKey: ...

    @abstractmethod
    def validate_key(self, s: StateKey) -> None:
        """Raise MalformedStateError if `s` is not a reachable state."""

    # The public methods below validate their key once and then call the
    # unchecked `_` form, which every environment implements. Callers that
    # only hold keys the env produced itself (the state space) call the
    # unchecked forms directly.

    def children(self, s: StateKey) -> list:
        """All legal transitions from `s` as (action_id, child, is_stop)."""
        self.validate_key(s)
        return self._children(s)

    def is_terminal(self, s: StateKey) -> bool:
        self.validate_key(s)
        return self._is_terminal(s)

    def featurize(self, s: StateKey) -> np.ndarray:
        self.validate_key(s)
        return self._featurize(s)

    @abstractmethod
    def _children(self, s: StateKey) -> list: ...

    @abstractmethod
    def _is_terminal(self, s: StateKey) -> bool: ...

    # An env whose keys are tuples of at most `key_width` ints may also give
    # `_children_rows(rows, lengths)`: `_children` of a whole batch of keys,
    # passed as a key matrix, an (n, key_width) integer matrix of any dtype
    # zero-padded on the right, as `int_key_matrix` builds it, and the
    # keys' lengths. It returns
    # (child, child_lengths, legal, stop): `legal` and `stop` are
    # (n, max_arity) masks of the slots that hold a non-stop child and of
    # the stop slots, and `child` holds the keys of the legal slots in
    # row-major (key, slot) order, in an integer dtype wide enough for their
    # values. The state space then enumerates the DAG a level at a time.
    key_width: int | None = None
    _children_rows = None

    # An env with a feature encoding gives it as `_featurize_rows(rows,
    # lengths)`: the (n, feature_dim) float64 features of a key matrix. The
    # state space featurizes with one such call, on its own key matrix if
    # the level walk built it, and `_featurize` of one key is derived from it.
    # An env without it has no features.
    _featurize_rows = None

    def _featurize(self, s: StateKey) -> np.ndarray:
        if self._featurize_rows is None:
            raise UnsupportedFeaturizationError(
                f"{self.kind} environment has no feature encoding; use the tabular backend"
            )
        rows = np.zeros((1, self.key_width), dtype=np.int64)
        rows[0, : len(s)] = s
        return self._featurize_rows(rows, np.array([len(s)]))[0]

    @abstractmethod
    def parents(self, s: StateKey) -> list:
        """Exact inverse of children: all (parent, action_id) into `s`."""

    @abstractmethod
    def log_reward(self, s: StateKey) -> float: ...

    # A class that defines a vectorized `_log_rewards` pairs it with the
    # `log_reward` it defines beside it; `log_rewards` uses it only while
    # that very function is the instance's `log_reward`. `_log_rewards`
    # returns None for a batch it does not take (a malformed key), which
    # then goes through the loop and so raises the scalar's error.
    _batched_log_reward = None

    # An env whose keys are tuples of ints may give its batch form on a key
    # matrix too, as `_log_reward_rows(rows, lengths)`: the log-rewards of
    # terminal keys it produced, passed as `_featurize_rows` takes them. Its
    # `_log_rewards` is then `int_key_matrix`, the key checks, and this row
    # form. A level-walked state space hands its key rows straight to it,
    # exactly where `log_rewards` would take the batch form (see
    # `reward_rows`). A class that overrides `log_rewards`, say to count the
    # keys it is given, or whose `log_reward` is overridden or patched, is
    # given keys, so anything that counts them still sees every evaluation.
    _log_reward_rows = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_log_rewards" in cls.__dict__:
            cls._batched_log_reward = cls.__dict__.get("log_reward")

    def log_rewards(self, keys) -> np.ndarray:
        """log R at every key, as a float64 array, bit for bit equal to
        `log_reward` key by key, and raising its error on a bad key.

        The default loops over `log_reward`. An env's vectorized form serves
        only while `log_reward` is the one its class defines; a subclass
        override or a patched class attribute gets the loop, so anything
        that counts `log_reward` calls still sees every evaluation.
        """
        keys = list(keys)
        cls = type(self)
        if cls.log_reward is cls._batched_log_reward:
            out = self._log_rewards(keys)
            if out is not None:
                return out
        return np.array([self.log_reward(k) for k in keys], dtype=np.float64)

    @property
    def feature_dim(self) -> int | None:
        """Feature vector length, or None if the env has no featurization."""
        return None

    @abstractmethod
    def n_states_estimate(self) -> int:
        """Exact reachable-state count from the closed form for this env."""

    @abstractmethod
    def structure(self) -> dict:
        """DAG-defining fields only (no reward parameters, no data)."""

    def fingerprint(self) -> str:
        """Digest of the DAG structure.

        Clients share the state graph but not the reward, so snapshots from
        clients with different reward parameters must still match.
        """
        blob = json.dumps(self.structure(), sort_keys=True).encode()
        return f"{self.kind}:{hashlib.sha256(blob).hexdigest()[:16]}"


def reward_rows(env):
    """`env._log_reward_rows` where `env.log_rewards` would take its batch
    form, else None: the class's `log_rewards` must be `Environment`'s and
    its `log_reward` the one defined beside `_log_rewards`. A subclass that
    overrides `log_rewards`, as the tests' `counting_rewards` does to count
    the keys it is given, is thus given keys and not rows."""
    cls = type(env)
    if cls.log_rewards is not Environment.log_rewards or cls.log_reward is not cls._batched_log_reward:
        return None
    return env._log_reward_rows


def int_key_matrix(keys: list, width: int):
    """Keys that are all plain tuples of at most `width` plain ints, as an
    (n, width) int64 matrix zero-padded on the right and their lengths;
    None for any other batch, which then takes the scalar path."""
    if not set(map(type, keys)) <= {tuple}:
        return None
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    if lengths.size and lengths.max() > width:
        return None
    if not set(map(type, chain.from_iterable(keys))) <= {int}:
        return None
    try:
        vals = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=int(lengths.sum()))
    except OverflowError:
        return None
    out = np.zeros((len(keys), width), dtype=np.int64)
    out[np.arange(width) < lengths[:, None]] = vals
    return out, lengths


def log_sigmoid(z: float) -> float:
    if z >= 0:
        return -np.log1p(np.exp(-z))
    return z - np.log1p(np.exp(z))
