"""Forward policies, trajectory sampling and replay, and the snapshot
format clients ship to the server. The backward policy is always uniform,
p_B(s' -> s) = 1 / |parents(s')|, and `replay_log_pb` computes it.

Trajectories exist only as a `TrajectoryBatch`, which holds the path alone:
states, actions and lengths. A single trajectory is a one-row batch.
Sampling advances a batch in lockstep and works on each step's distinct
states: one masked softmax, legal mask, uniform row and cumulative sum of
each per distinct state, which every trajectory at that state then reads.
A row's softmax and cumulative sum do not depend on the other rows, so the
draws are those of one row per trajectory. Sampling evaluates no reward; a
loss reads log R from the space's cache, `StateSpace.log_rewards`.

Everything computed per step afterwards reads the batch's step record,
`Steps`: the batch itself, then its steps flattened row-major over
`TrajectoryBatch.valid()` (states, actions, log-softmax rows, softmax rows,
backend cache). It is the one input of every loss.
`sample_batch(..., want_steps=True)` returns it as one gather from the
distinct rows the sampler drew with, stacked in step order; `replay_steps`
builds the record under the current parameters, with one masked softmax
over every step, for a batch that was not just sampled. The two records
are equal bit for bit for a tabular policy, and within rounding for an
MLP (see below). `step_sums` adds the steps up in t order.

Every environment's DAG is graded, so a state appears only at the step t
equal to its depth, and the distinct states of different steps never
coincide. Scatter-adds over the flat steps (`row_sums`, one
`np.bincount` over flat cells) therefore meet each state's terms in the
order a loop over t would, and tabular results keep their bits.

A block has k output columns per state: the arity for a policy, one for
the state flow log F(s) that DB trains, so a flow is a
`TabularPolicy(space, zeros((n, 1)))` or an `MlpPolicy` whose last width is
1. Each block returns the flat gradient of its outputs, `logits_grad`. A
tabular block's rows are gathers through one (n_states, k) id map, and its
gradient is one `np.bincount` into the ids: a policy block maps its legal
edges by `StateSpace.edge_ids`, any other block every cell row-major.

An MLP evaluates each distinct state of a call once: `MlpPolicy.logits_rows`
runs the forward over the unique state indices and expands the rows back,
and `MlpPolicy.logits_grad` sums each state's output gradients before one
backward. The sampler's record stacks the forwards of its steps in
`np.unique` order, so its cache holds the rows `logits_rows` would build.
Their bits, though, may differ in the last place: BLAS picks its matrix
kernel by the size of a call (OpenBLAS does), so an MLP row depends on how
many rows share its forward. Tabular rows are plain gathers and skip the
dedupe, and their bits never depend on the call.

A read that takes no gradient (exact evaluation, the pooled locals, the
theorem checks) goes through `policy_probs`, which keeps no cache: an MLP
runs its forward in `FORWARD_CHUNK`-sized parts and keeps only their
outputs, so the memory of a read is bounded by the part, not the call.

A snapshot (version 3) is one line of sorted, compact JSON, then the flat
parameters as raw little-endian float64. The header holds the version, the
environment fingerprint, the backend, its `arch`, the backward mode and
free `meta`; `json.dumps` escapes control characters, so the first newline
ends it. A tabular payload has one value per legal edge in row-major
(state, slot) order, and its arch holds `n_states`, `arity` and `n_edges`;
an MLP payload is its flat vector, and its arch holds `widths` and
`negative_slope`. A snapshot of any other version is refused; the text
snapshots of versions 1 and 2 were one JSON line, so they read as a header
of their version.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .envs.base import Environment
from .envs.space import CHILD_ILLEGAL, CHILD_STOP, StateSpace, unique_ints
from .errors import (
    FingerprintMismatchError,
    MalformedStateError,
    NumericError,
    SnapshotError,
)
from .nn import MlpSpec, mlp_backward, mlp_forward, mlp_init, mlp_stack_caches

SNAPSHOT_VERSION = 3
# rows per MLP forward in a cache-free read. A call of n rows runs as
# ceil(n / FORWARD_CHUNK) near-equal parts, never as full parts plus a small
# remainder: with OpenBLAS 0.3.31 (Haswell, one thread), forwards over parts
# of 256 rows or more kept the bits of one whole call on sequence 6x6, and
# parts of 100 rows or fewer changed every row in the last place.
FORWARD_CHUNK = 1024


def masked_log_softmax(logits: np.ndarray, legal: np.ndarray):
    """Row-wise log-softmax restricted to legal slots.

    Illegal slots get probability exactly 0 and log-probability -inf; the
    -inf never propagates because callers only index realized (legal) actions.
    It computes masked - (m + log(sum(exp(masked - m)))) in two row buffers,
    since fresh temporaries of a large batch each cost new pages. The row
    max m is taken one column at a time: the bits of max(axis=1), without
    its per-row overhead on a few columns.
    """
    logp = np.where(legal, logits, -np.inf)
    m = logp[:, 0].copy()
    for col in logp.T[1:]:
        np.maximum(m, col, out=m)
    m = m[:, None]
    p = np.subtract(logp, m)
    np.exp(p, out=p)
    logp -= m + np.log(p.sum(axis=1, keepdims=True))
    return logp, np.exp(logp, out=p)


def row_sums(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """(n, k) array whose row i sums the rows of `vals` (k columns) at which
    `idx` is i, from one `np.bincount` over flat (row, column) cells. It adds
    in input order, so a sum into zeros has the bits of `np.add.at`."""
    k = vals.shape[1]
    cells = (idx[:, None] * k + np.arange(k)).ravel()
    return np.bincount(cells, weights=vals.ravel(), minlength=n * k).reshape(n, k)


def cache_rows(cache, rows):
    """The backend cache for the rows `rows` of the call that returned
    `cache`: a tabular gather has none, and an MLP cache keeps its forward
    over the distinct states and re-indexes the rows."""
    if cache is None:
        return None
    fwd, inv, uniq = cache
    return fwd, inv[rows], uniq


# ---------------------------------------------------------------------------
# policy backends


class ForwardPolicy:
    """Interface shared by the tabular and MLP backends: k output columns per
    state, the arity for a policy and one column for a state flow."""

    backend: str = "abstract"

    @property
    def arity(self) -> int:
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        raise NotImplementedError

    def get_params(self) -> np.ndarray:
        raise NotImplementedError

    def set_params(self, flat: np.ndarray) -> None:
        raise NotImplementedError

    def logits_rows(self, space: StateSpace, idx: np.ndarray):
        """((batch, k) raw outputs, an opaque cache for the matching
        logits_grad call)."""
        raise NotImplementedError

    def outputs(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        """The (batch, k) raw outputs alone, for a read that takes no
        gradient."""
        return self.logits_rows(space, idx)[0]

    def logits_grad(self, idx: np.ndarray, dlogits: np.ndarray, cache) -> np.ndarray:
        """Flat parameter gradient of sum(dlogits * outputs at `idx`); `cache`
        is the one logits_rows returned for `idx`, or `cache_rows` of it for
        rows taken from it."""
        raise NotImplementedError


class TabularPolicy(ForwardPolicy):
    """k outputs per enumerated state, k the arity by default, held in one
    flat `params` vector, read through one (n_states, k) id map. A policy
    block (k = arity) maps through `StateSpace.edge_ids`, one parameter per
    legal edge: an illegal slot is masked out of every softmax and never
    gets a gradient, so it has no parameter. Any other block, such as the
    one-column state flow, maps every (state, column) cell row-major.

    It is built from a dense (n_states, k) `table`, whose legal cells it
    gathers (all zeros if omitted), or from `params`, a flat vector it keeps
    as it is, without a copy, so that it can be a view of a larger buffer."""

    backend = "tabular"

    def __init__(self, space: StateSpace, table: np.ndarray | None = None, *, k: int | None = None, params=None):
        space.require_complete()
        n = space.n_states
        if table is not None:
            table = np.asarray(table, dtype=np.float64)
            if table.ndim != 2 or table.shape[0] != n:
                raise ValueError(f"table shape {table.shape} does not have {n} rows")
            k = table.shape[1]
        self.n_states, self.k = n, space.arity if k is None else k
        size = self.size(space, self.k)
        self._ids = space.edge_ids() if self.k == space.arity else np.arange(size).reshape(n, self.k)
        if table is not None:
            params = table[self._ids < size]
        self.params = np.zeros(size) if params is None else params
        if self.params.shape != (size,):
            raise ValueError(f"a tabular block of {self.k} columns has {size} parameters, got {self.params.shape}")

    @staticmethod
    def size(space: StateSpace, k: int) -> int:
        """The parameter count of a k-column block on `space`."""
        return space.n_edges if k == space.arity else space.n_states * k

    @property
    def arity(self) -> int:
        return self.k

    @property
    def n_params(self) -> int:
        return self.params.size

    @property
    def table(self) -> np.ndarray:
        """The outputs as a new, read-only dense (n_states, k) array, 0 on
        every illegal slot."""
        out = np.append(self.params, 0.0)[self._ids]
        out.flags.writeable = False
        return out

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.params = flat.copy()

    def logits_rows(self, space, idx):
        """The rows of `idx`; an illegal slot reads some other parameter,
        which every caller masks."""
        return self.params.take(self._ids.take(idx, axis=0), mode="clip"), None

    def logits_grad(self, idx, dlogits, cache) -> np.ndarray:
        """One `np.bincount` over the cells of `idx` in input order, so each
        parameter sums its terms as `np.add.at` would; the illegal cells
        fall into one extra bin, which is dropped."""
        cells = self._ids.take(idx, axis=0).ravel()
        return np.bincount(cells, weights=dlogits.ravel(), minlength=self.n_params + 1)[:-1]

    def arch_descriptor(self) -> dict:
        return {"n_states": self.n_states, "arity": self.k, "n_edges": self.n_params}


class MlpPolicy(ForwardPolicy):
    """Network over the environment's feature encoding; its last width is the
    output count k."""

    backend = "mlp"

    def __init__(self, spec: MlpSpec, params: np.ndarray):
        self.spec = spec
        self.params = np.asarray(params, dtype=np.float64)
        if self.params.shape != (spec.n_params,):
            raise ValueError("parameter vector does not match the MLP spec")

    @classmethod
    def create(cls, env: Environment, hidden: tuple[int, ...], rng: np.random.Generator) -> "MlpPolicy":
        spec = MlpSpec((env.feature_dim, *hidden, env.max_arity))
        return cls(spec, mlp_init(spec, rng))

    @property
    def arity(self) -> int:
        return self.spec.widths[-1]

    @property
    def n_params(self) -> int:
        return self.spec.n_params

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.params = flat.copy()

    def logits_rows(self, space, idx):
        """One forward over the distinct states of `idx`, its rows expanded
        back through the inverse index: a state's row does not depend on how
        it was reached. The cache is (forward cache, inverse index, distinct
        states)."""
        uniq, inv = unique_ints(idx, return_inverse=True)
        out, cache = mlp_forward(self.spec, self.params, space.features(uniq))
        return out[inv], (cache, inv, uniq)

    def outputs(self, space, idx):
        """The forward over the rows of `idx` as given, in near-equal parts
        of at most `FORWARD_CHUNK` rows, keeping each part's output and
        dropping its cache. Callers pass distinct states; a call of at most
        `FORWARD_CHUNK` rows is one forward, as in `logits_rows`."""
        idx = np.asarray(idx)
        parts = np.array_split(idx, max(1, -(-idx.size // FORWARD_CHUNK)))
        return np.concatenate([mlp_forward(self.spec, self.params, space.features(part))[0] for part in parts])

    def logits_grad(self, idx, dlogits, cache) -> np.ndarray:
        """The `dlogits` rows of each distinct state are summed, then one
        backward runs over the distinct states. The backward is linear in its
        output gradient, so this equals one backward per row."""
        fwd, inv, uniq = cache
        return mlp_backward(self.spec, self.params, fwd, row_sums(inv, dlogits, uniq.size))[0]

    def arch_descriptor(self) -> dict:
        return {
            "widths": list(self.spec.widths),
            "negative_slope": self.spec.negative_slope,
        }


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryBatch:
    states: np.ndarray  # (B, T) state indices, -1 beyond the path
    actions: np.ndarray  # (B, T) action ids, -1 beyond the path
    lengths: np.ndarray  # (B,) transition counts, stop included
    # accepted and dropped, for callers that pass six positional arrays: log
    # p_F is the step record's (`step_log_pf`), log p_B `replay_log_pb`'s, and
    # log R the space's
    log_pf: InitVar[np.ndarray | None] = None
    log_pb: InitVar[np.ndarray | None] = None
    log_reward: InitVar[np.ndarray | None] = None

    @property
    def batch_size(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]

    def terminal_idx(self) -> np.ndarray:
        return self.states[np.arange(self.batch_size), self.lengths - 1]

    def valid(self) -> np.ndarray:
        """(B, T) mask of the steps each trajectory takes; indexing with it
        gives the row-major step order of every flat step array."""
        return np.arange(self.horizon) < self.lengths[:, None]

    def subset(self, idx) -> "TrajectoryBatch":
        return TrajectoryBatch(self.states[idx], self.actions[idx], self.lengths[idx])


class Steps(NamedTuple):
    """The step record of a batch: every step of `tb`, flattened row-major
    over `tb.valid()`, with the policy's rows at each step's state."""

    tb: TrajectoryBatch
    valid: np.ndarray  # (B, T) the batch's step mask
    states: np.ndarray  # the states the steps leave
    actions: np.ndarray  # the actions they take
    logp: np.ndarray  # one masked log-softmax row per step
    p: np.ndarray  # one softmax row per step
    cache: object  # the backend cache `logits_grad` takes for `states`


def _legal_rows(space: StateSpace, idx: np.ndarray):
    """(child codes, legal mask) at `idx`; a state with no legal move raises."""
    rows = space.children_rows(idx)
    legal = rows != CHILD_ILLEGAL
    if not legal.any(axis=1).all():
        raise MalformedStateError("reached a state with no legal transitions")
    return rows, legal


def policy_rows(policy: ForwardPolicy, space: StateSpace, idx: np.ndarray):
    """(child codes, masked log-softmax, softmax, backend cache) of the
    policy at the state indices `idx`, one row each; the cache is the one
    `logits_grad` takes for the same `idx`."""
    rows, legal = _legal_rows(space, idx)
    logits, cache = policy.logits_rows(space, idx)
    logp, p = masked_log_softmax(logits, legal)
    return rows, logp, p, cache


def policy_probs(policy: ForwardPolicy, space: StateSpace, idx: np.ndarray):
    """(child codes, masked log-softmax, softmax) of the policy at the state
    indices `idx`, as `policy_rows` gives them, from `outputs`: no cache is
    kept, so nothing can take a gradient through them."""
    rows, legal = _legal_rows(space, idx)
    logp, p = masked_log_softmax(policy.outputs(space, idx), legal)
    return rows, logp, p


def step_sums(valid: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per-trajectory sums of the flat per-step values `vals` (one per True
    cell of `valid`, row-major), added one column at a time in t order: the
    bits of a loop over t, which `np.sum(axis=1)` does not give."""
    grid = np.zeros(valid.shape)
    grid[valid] = vals
    total = np.zeros(valid.shape[0])
    for col in grid.T:
        total += col
    return total


def _count_below(cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """How many entries of each column of `cum` lie below that column's `r`:
    `(cum.T < r[:, None]).sum(axis=1)`. With the slots as rows, one reduction
    adds them up one slot at a time over every column, instead of paying a
    per-row overhead on a few columns."""
    return (cum < r).sum(axis=0)


def _sample_rows(cum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One slot per column of `cum`, which holds a row's cumulative
    probabilities: the first slot whose sum reaches a uniform draw scaled to
    the column's total."""
    r = (1.0 - rng.random(cum.shape[1])) * cum[-1]
    return np.minimum(_count_below(cum, r), cum.shape[0] - 1)


def sample_batch(
    policy: ForwardPolicy,
    space: StateSpace,
    batch: int,
    epsilon: float,
    rng: np.random.Generator,
    want_steps: bool = False,
):
    """Sample `batch` trajectories from the epsilon-mixture of the policy and
    the uniform forward policy. The step record holds the policy's own rows
    - the mixture is only a proposal. No reward is evaluated.

    Each step computes its rows once per distinct state it leaves, and each
    trajectory takes its state's row: step (b, t) reads row slot[b, t] of
    the steps' distinct rows stacked in t order.

    With want_steps, returns the batch's step record instead, gathered from
    the rows the sampler already computed: the record `replay_steps` would
    build under the unchanged parameters, bit for bit for a tabular policy
    and within rounding for an MLP, whose forward bits depend on the size
    of the call."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    horizon = space.env.max_traj_len
    states = np.full((batch, horizon), -1, dtype=np.int64)
    actions = np.full((batch, horizon), -1, dtype=np.int64)
    slot = np.zeros((batch, horizon), dtype=np.int64)
    lengths = np.zeros(batch, dtype=np.int64)
    states[:, 0] = space.root
    alive = np.arange(batch)
    record = []  # per step t: (log-softmax rows, softmax rows, backend cache) of its distinct states
    offset = t = 0
    while alive.size:
        if t >= horizon:
            raise NumericError("trajectory step budget exceeded; DAG integrity suspect")
        uniq, inv = unique_ints(states[alive, t], return_inverse=True)
        rows, logp, p, bc = policy_rows(policy, space, uniq)
        record.append((logp, p, bc))
        dist, pick = p, inv
        if epsilon > 0:  # the uniform rows follow the policy's, and the mixture picks between them
            legal = rows != CHILD_ILLEGAL
            dist = np.concatenate([p, legal / legal.sum(axis=1, keepdims=True)])
            pick = inv + uniq.size * (rng.random(alive.size) < epsilon)
        a = _sample_rows(dist.T.cumsum(axis=0).take(pick, axis=1), rng)
        slot[alive, t] = offset + inv
        offset += uniq.size
        actions[alive, t] = a
        code = rows[inv, a]
        stop = code == CHILD_STOP
        lengths[alive[stop]] = t + 1
        alive, nxt = alive[~stop], code[~stop]
        if alive.size:
            if t + 1 >= horizon:
                raise NumericError("non-stop transition at the step budget boundary")
            states[alive, t + 1] = nxt
        t += 1
    tb = TrajectoryBatch(states, actions, lengths)
    if not want_steps:
        return tb
    valid = tb.valid()
    g, a = slot[valid], actions[valid]
    logps, ps, caches = zip(*record)
    bc = None if caches[0] is None else _stack_mlp_rows(caches, g)
    return Steps(tb, valid, states[valid], a, np.concatenate(logps)[g], np.concatenate(ps)[g], bc)


def _stack_mlp_rows(caches, g: np.ndarray):
    """The `MlpPolicy.logits_rows` cache of the flat steps, from the
    sampler's per-step caches over distinct states and each step's row `g`
    in their stack. The DAG is graded, so the steps' distinct states are
    disjoint: sorted, they are `np.unique` of the flat states, also on a
    lazily expanded space, where discovery order is not depth order."""
    stacked = np.concatenate([uniq for *_, uniq in caches])
    order = np.argsort(stacked)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return mlp_stack_caches([fwd for fwd, *_ in caches], order), rank[g], stacked[order]


# ---------------------------------------------------------------------------
# step records and log-probability replay (recompute under current parameters)


def replay_steps(policy: ForwardPolicy, space: StateSpace, tb: TrajectoryBatch) -> Steps:
    """The step record of `tb` under the policy's current parameters, from
    one masked softmax over every step of the batch."""
    valid = tb.valid()
    s = tb.states[valid]
    _, logp, p, bc = policy_rows(policy, space, s)
    return Steps(tb, valid, s, tb.actions[valid], logp, p, bc)


def step_log_pf(steps: Steps) -> np.ndarray:
    """Per-trajectory sum of log p_F over a step record."""
    return step_sums(steps.valid, steps.logp[np.arange(steps.states.size), steps.actions])


def replay_log_pf(policy: ForwardPolicy, space: StateSpace, tb: TrajectoryBatch) -> np.ndarray:
    """Per-trajectory sum of log p_F under the policy's current parameters."""
    return step_log_pf(replay_steps(policy, space, tb))


def apply_log_pf_grad(policy: ForwardPolicy, space: StateSpace, steps: Steps, coeffs: np.ndarray) -> np.ndarray:
    """The flat gradient sum_k coeffs[k] * d log p_F(tau_k) / d params, from
    the step record of the batch: one `logits_grad` call over every step of
    it."""
    s, a = steps.states, steps.actions
    c = coeffs[np.nonzero(steps.valid)[0]]  # each step takes its trajectory's coefficient
    dl = steps.p * -c[:, None]
    dl[np.arange(s.size), a] += c
    return policy.logits_grad(s, dl, steps.cache)


def replay_log_pb(space: StateSpace, tb: TrajectoryBatch) -> np.ndarray:
    """Uniform-backward log-prob sums recomputed from parent counts."""
    if tb.horizon <= 1:
        return np.zeros(tb.batch_size)
    mask = tb.valid()[:, 1:]  # non-stop transitions enter states[:, 1:]
    nxt = np.where(mask, tb.states[:, 1:], 0)
    npar = np.where(mask, space.nparents(nxt), 1)
    return -np.log(npar).sum(axis=1)


# ---------------------------------------------------------------------------
# exactly balanced policies from dynamic programming


def balanced_tabular_policy(space: StateSpace, log_r: np.ndarray | None = None) -> TabularPolicy:
    """Tabular policy satisfying trajectory balance exactly under the uniform
    backward policy, built from exact backward-reachability flows.

    With G(s) = [s terminal] R(s) + sum_children G(c) / |parents(c)|, setting
    p_F(c|s) = G(c) / (|parents(c)| G(s)) and p_F(stop|s) = R(s)/G(s) gives
    p_F(tau) = R(x) p_B(tau|x) / G(s0) for every complete trajectory.
    """
    space.require_complete()
    n, arity = space.n_states, space.arity
    if log_r is None:
        log_r = np.full(n, -np.inf)
        term = space.terminal_indices()
        log_r[term] = space.log_rewards(term)
    log_g = np.full(n, -np.inf)
    logits = np.zeros((n, arity))
    for lv in reversed(space.levels()):
        rows = space.children_rows(lv)
        vals = np.full(rows.shape, -np.inf)
        interior = rows >= 0
        stop = rows == CHILD_STOP
        codes = rows[interior]
        vals[interior] = log_g[codes] - np.log(space.nparents(codes))
        vals[stop] = np.broadcast_to(log_r[lv][:, None], rows.shape)[stop]
        m = vals.max(axis=1, keepdims=True)
        log_g[lv] = (m + np.log(np.exp(vals - m).sum(axis=1, keepdims=True)))[:, 0]
        logits[lv] = np.where(vals > -np.inf, vals, 0.0)
    return TabularPolicy(space, logits)


# ---------------------------------------------------------------------------
# snapshot io


def save_snapshot(policy: ForwardPolicy, env: Environment, meta: dict | None = None) -> bytes:
    """Serialize a policy to the snapshot exchanged with the server."""
    doc = {
        "version": SNAPSHOT_VERSION,
        "env_fingerprint": env.fingerprint(),
        "backend": policy.backend,
        "arch": policy.arch_descriptor(),
        "backward": {"mode": "uniform"},
        "meta": meta or {},
    }
    return snapshot_bytes(doc, policy.get_params())


def snapshot_bytes(doc: dict, params: np.ndarray) -> bytes:
    """The snapshot of header `doc` and `params`: sorted, compact JSON, a
    newline, then the parameters as little-endian float64; the inverse of
    `read_snapshot`."""
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return header + b"\n" + np.asarray(params, dtype="<f8").tobytes()


def read_snapshot(blob: bytes) -> tuple[dict, np.ndarray]:
    """The header and the read-only parameter view of a snapshot of the
    known version; `SnapshotError` for anything else."""
    cut = blob.find(b"\n")
    try:
        doc = json.loads((blob if cut < 0 else blob[:cut]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"undecodable snapshot header: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotError("a snapshot header must be a JSON object")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {doc.get('version')!r}: this reader supports version {SNAPSHOT_VERSION} only"
        )
    if cut < 0:
        raise SnapshotError("a snapshot needs a newline after its header")
    size = len(blob) - cut - 1
    if size % 8:
        raise SnapshotError(f"parameter payload of {size} bytes is not a whole number of float64")
    return doc, np.frombuffer(blob, dtype="<f8", offset=cut + 1)


def load_snapshot(blob: bytes, env: Environment, space: StateSpace | None = None):
    """Deserialize a snapshot against `env`; returns (policy, meta). Only the
    uniform backward policy is supported.

    Pass the environment's enumerated StateSpace to avoid re-enumerating for
    tabular policies.
    """
    doc, payload = read_snapshot(blob)
    if doc.get("env_fingerprint") != env.fingerprint():
        raise FingerprintMismatchError(
            f"snapshot fingerprint {doc.get('env_fingerprint')!r} != environment {env.fingerprint()!r}"
        )
    backward = doc.get("backward")
    if not isinstance(backward, dict) or backward.get("mode") != "uniform":
        raise SnapshotError("unsupported backward-policy mode")
    params = payload.astype(np.float64)  # an aligned, writable copy the policy owns
    if not np.all(np.isfinite(params)):
        raise SnapshotError("non-finite parameter in the payload")
    arch, meta = doc.get("arch"), doc.get("meta", {})
    if not isinstance(arch, dict):
        raise SnapshotError(f"snapshot arch must be an object, got {arch!r}")
    if not isinstance(meta, dict):
        raise SnapshotError(f"snapshot meta must be an object, got {meta!r}")
    if doc.get("backend") == "tabular":
        if space is None:
            space = StateSpace.enumerated(env)
        space.require_complete()
        n, a, e = arch.get("n_states"), arch.get("arity"), arch.get("n_edges")
        if (n, a) != (space.n_states, space.arity):
            raise SnapshotError(
                f"tabular arch ({n}, {a}) does not match enumeration ({space.n_states}, {space.arity})"
            )
        if e != space.n_edges:
            raise SnapshotError(f"tabular arch has n_edges {e!r}, but the space has {space.n_edges} legal edges")
        if params.size != space.n_edges:
            dense = " (n_states x arity, the dense layout of version 1)" if params.size == n * a else ""
            raise SnapshotError(
                f"tabular payload holds {params.size} values{dense}, not one per legal edge ({space.n_edges})"
            )
        policy: ForwardPolicy = TabularPolicy(space, params=params)
    elif doc.get("backend") == "mlp":
        widths = arch.get("widths")
        try:
            spec = MlpSpec(tuple(widths), arch.get("negative_slope", 0.01))
        except (TypeError, ValueError) as exc:
            raise SnapshotError(f"bad MLP arch: {exc}") from exc
        if widths[0] != env.feature_dim or widths[-1] != env.max_arity:
            raise SnapshotError("MLP spec does not fit the environment")
        if params.size != spec.n_params:
            raise SnapshotError("truncated MLP parameter payload")
        policy = MlpPolicy(spec, params)
    else:
        raise SnapshotError(f"unknown backend {doc.get('backend')!r}")
    return policy, meta

