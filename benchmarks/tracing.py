"""Span tracing for the traced benchmark run.

`install` wraps the public functions of each gfnpool layer in every module
that imported them, so a call is caught whichever module makes it. The
program's own files are not touched, and the untraced runs never call
`install`. Spans stay in memory and are written once, when the run ends.

A span records (id, name, parent id, start, end, tag). Calls that happen
hundreds of thousands of times per round (`log_reward`, parameter copies,
MLP passes) are not kept one by one: they are summed per (name, parent)
into calls, seconds and rows, which is enough for totals and self times
and keeps memory flat.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._next = 1
        self._undo: list[tuple] = []
        self.ab_policy = None

    @property
    def parent_name(self) -> str:
        return self._stack[-1][1]

    def span(self, name: str, fn, tag=None):
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1][0]
            label = tag(self, args, kwargs) if tag else None
            self._stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, parent, t0, t1, label))

        return traced

    def leaf(self, name: str, fn, rows=None):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                acc = self.leaves.get((name, self._stack[-1][0]))
                if acc is None:
                    acc = self.leaves[(name, self._stack[-1][0])] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += dt
                if rows is not None:
                    acc[2] += rows(args)

        return traced

    def patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def write(self, path) -> None:
        doc = {
            "spans": [list(s) for s in self.spans],
            "leaves": [[n, p, *acc] for (n, p), acc in self.leaves.items()],
        }
        path.write_text(json.dumps(doc))


def _ab_tag(tr: Tracer, args, kwargs):
    tr.ab_policy = args[0] if args else kwargs["policy"]
    return None


def _replay_tag(tr: Tracer, args, kwargs):
    policy = args[0] if args else kwargs["policy"]
    return "local" if tr.parent_name == "losses.ab" and policy is not tr.ab_policy else None


def _mlp_rows(args) -> int:
    x = args[2]
    return 1 if x.ndim == 1 else int(x.shape[0])


def install(tr: Tracer) -> None:
    """Wrap every traced function where each caller imported it."""
    from gfnpool import aggregate, cli, config, evaluation, losses, nn, policy, train
    from gfnpool.envs import GridEnv, MultisetEnv, PhyloEnv, SequenceEnv, space

    modules = [policy, losses, train, aggregate, evaluation, cli, nn, config, space]
    functions = [
        (policy, "sample_batch", "policy.sample_batch", None),
        (policy, "replay_log_pf", "policy.replay_log_pf", _replay_tag),
        (policy, "apply_log_pf_grad", "policy.apply_log_pf_grad", None),
        (policy, "save_snapshot", "policy.snapshot_save", None),
        (policy, "load_snapshot", "policy.snapshot_load", None),
        (losses, "cb_loss_batch", "losses.cb", None),
        (losses, "ab_loss_batch", "losses.ab", _ab_tag),
        (nn, "adamw_step", "nn.adamw_step", None),
        (train, "train_local", "train.train_local", None),
        (aggregate, "aggregate_ab", "aggregate.aggregate_ab", None),
        (aggregate, "load_local_policies", "aggregate.load_locals", None),
        (evaluation, "exact_pT", "evaluation.exact_pT", None),
        (evaluation, "reward_table", "evaluation.reward_table", None),
        (evaluation, "l1", "evaluation.l1", None),
    ]
    leaves = [
        (nn, "mlp_forward", "nn.mlp_forward", _mlp_rows),
        (nn, "mlp_backward", "nn.mlp_backward", None),
    ]

    def everywhere(source, attr, wrapper):
        original = getattr(source, attr)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                tr.patch(mod, attr, wrapper)

    for source, attr, name, tag in functions:
        everywhere(source, attr, tr.span(name, getattr(source, attr), tag))
    for source, attr, name, rows in leaves:
        everywhere(source, attr, tr.leaf(name, getattr(source, attr), rows))
    enumerated = space.StateSpace.__dict__["enumerated"].__func__
    tr.patch(space.StateSpace, "enumerated", classmethod(tr.span("space.enumerate", enumerated)))
    for cls in (GridEnv, MultisetEnv, PhyloEnv, SequenceEnv):
        tr.patch(cls, "log_reward", tr.leaf("env.log_reward", cls.__dict__["log_reward"]))
    for cls in (policy.TabularPolicy, policy.MlpPolicy):
        for attr in ("get_params", "set_params"):
            tr.patch(cls, attr, tr.leaf("policy.param_copy", cls.__dict__[attr]))


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals over everything traced, as {name: (value, unit)}."""
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    rows: dict[str, int] = defaultdict(int)
    covered: dict[int, float] = defaultdict(float)  # span id -> time in direct children
    for sid, name, parent, t0, t1, _ in tr.spans:
        calls[name] += 1
        secs[name] += t1 - t0
        covered[parent] += t1 - t0
    for (name, parent), (n, s, r) in tr.leaves.items():
        calls[name] += n
        secs[name] += s
        rows[name] += r
        covered[parent] += s

    def self_s(name: str) -> float:
        return sum(t1 - t0 - covered[sid] for sid, n, _, t0, t1, _ in tr.spans if n == name)

    local = [t1 - t0 for _, n, _, t0, t1, tag in tr.spans if n == "policy.replay_log_pf" and tag == "local"]
    ab_calls = calls["losses.ab"]
    s, c = "s", "count"
    return {
        "space.enumerate_calls": (calls["space.enumerate"], c),
        "space.enumerate_s": (secs["space.enumerate"], s),
        "env.log_reward_calls": (calls["env.log_reward"], c),
        "env.log_reward_s": (secs["env.log_reward"], s),
        "policy.sample_batch_s": (secs["policy.sample_batch"], s),
        "policy.sample_batch_calls": (calls["policy.sample_batch"], c),
        "policy.replay_log_pf_s": (secs["policy.replay_log_pf"], s),
        "policy.replay_log_pf_calls": (calls["policy.replay_log_pf"], c),
        "policy.apply_log_pf_grad_s": (secs["policy.apply_log_pf_grad"], s),
        "policy.param_copy_s": (secs["policy.param_copy"], s),
        "policy.snapshot_save_s": (secs["policy.snapshot_save"], s),
        "policy.snapshot_load_s": (secs["policy.snapshot_load"], s),
        "losses.cb_self_s": (self_s("losses.cb"), s),
        "losses.ab_self_s": (self_s("losses.ab"), s),
        "losses.ab_local_replay_s": (sum(local), s),
        "losses.ab_local_replays_per_epoch": (len(local) / ab_calls if ab_calls else 0.0, c),
        "nn.adamw_step_s": (secs["nn.adamw_step"], s),
        "nn.adamw_step_calls": (calls["nn.adamw_step"], c),
        "nn.mlp_forward_s": (secs["nn.mlp_forward"], s),
        "nn.mlp_forward_rows": (rows["nn.mlp_forward"], "rows"),
        "nn.mlp_backward_s": (secs["nn.mlp_backward"], s),
        "aggregate.aggregate_ab_s": (secs["aggregate.aggregate_ab"], s),
        "aggregate.load_locals_s": (secs["aggregate.load_locals"], s),
        "evaluation.exact_pT_s": (secs["evaluation.exact_pT"], s),
        "evaluation.exact_pT_calls": (calls["evaluation.exact_pT"], c),
        "evaluation.reward_table_s": (secs["evaluation.reward_table"], s),
        "evaluation.l1_s": (secs["evaluation.l1"], s),
    }


def calls_under(tr: Tracer, name: str, ancestor: str) -> int:
    """Calls of `name` made anywhere inside a span named `ancestor`."""
    parent_of = {sid: parent for sid, _, parent, *_ in tr.spans}
    inside = {sid for sid, n, *_ in tr.spans if n == ancestor}

    def within(sid: int) -> bool:
        while sid:
            if sid in inside:
                return True
            sid = parent_of.get(sid, 0)
        return False

    n = sum(1 for sid, nm, parent, *_ in tr.spans if nm == name and within(parent))
    return n + sum(acc[0] for (nm, parent), acc in tr.leaves.items() if nm == name and within(parent))
