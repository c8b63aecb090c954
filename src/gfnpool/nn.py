"""Dense-network substrate: flat-parameter MLPs with hand-rolled reverse-mode
gradients, plus the AdamW update rule.

Everything is float64. Forward/backward never mutate their inputs; the
optimizer updates the parameter vector and its moments in place. Parameters
live in a single flat array laid out layer-major (weight matrix row-major,
then bias, for each layer in order), so snapshots and parameter averaging are
trivial.

The optimizer keeps moments only for the parameters a gradient has ever
reached, and for every parameter of a group with weight decay. A step reads
the whole gradient once; its other work and its temporaries are the size of
that live set, and its results have the dense update's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., output) of a LeakyReLU MLP."""

    widths: tuple[int, ...]
    negative_slope: float = 0.01

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError("MlpSpec needs at least one hidden layer")
        if any(w < 1 for w in self.widths):
            raise ValueError("all layer widths must be >= 1")

    @property
    def n_params(self) -> int:
        return sum(o * i + o for i, o in zip(self.widths[:-1], self.widths[1:]))

    def layer_slices(self) -> list[tuple[slice, slice, int, int]]:
        """Per layer: (weight slice, bias slice, fan_in, fan_out) into the flat vector."""
        out = []
        pos = 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            w = slice(pos, pos + o * i)
            pos += o * i
            b = slice(pos, pos + o)
            pos += o
            out.append((w, b, i, o))
        return out


def mlp_init(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights, zero biases, as one flat float64 vector."""
    params = np.zeros(spec.n_params)
    for w, b, fan_in, fan_out in spec.layer_slices():
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params[w] = rng.uniform(-bound, bound, size=fan_out * fan_in)
        params[b] = 0.0
    return params


def mlp_forward(spec: MlpSpec, params: np.ndarray, x: np.ndarray):
    """Evaluate the network; returns (output, cache) with cache reusable by
    :func:`mlp_backward`. Accepts a single input vector or a (batch, in) matrix.
    """
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got {params.shape}")
    single = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if h.shape[1] != spec.widths[0]:
        raise ValueError(f"input width {h.shape[1]} != spec input {spec.widths[0]}")
    slices = spec.layer_slices()
    inputs = []  # per-layer input activations
    preacts = []  # per-layer pre-activations (None for the final linear layer)
    for li, (w, b, fan_in, fan_out) in enumerate(slices):
        W = params[w].reshape(fan_out, fan_in)
        inputs.append(h)
        z = h @ W.T + params[b]
        if li < len(slices) - 1:
            preacts.append(z)
            h = np.where(z > 0, z, spec.negative_slope * z)
        else:
            preacts.append(None)
            h = z
    cache = (inputs, preacts)
    return (h[0] if single else h), cache


def mlp_stack_caches(caches, order: np.ndarray):
    """The cache of one forward over the inputs of `caches` stacked in turn,
    with its rows taken in `order`: a row's activations do not depend on the
    other rows of its call, so :func:`mlp_backward` takes it as the cache of
    a forward over those rows."""
    inputs = [np.concatenate(layer)[order] for layer in zip(*(c[0] for c in caches))]
    preacts = [None if layer[0] is None else np.concatenate(layer)[order] for layer in zip(*(c[1] for c in caches))]
    return inputs, preacts


def mlp_backward(spec: MlpSpec, params: np.ndarray, cache, dout: np.ndarray):
    """Reverse accumulation through the cached forward pass.

    Returns (flat parameter gradient, input gradient). `dout` must match the
    shape the forward call produced.
    """
    inputs, preacts = cache
    single = dout.ndim == 1
    g = np.atleast_2d(np.asarray(dout, dtype=np.float64))
    if g.shape[0] != inputs[0].shape[0]:
        raise ValueError("gradient batch does not match cached forward batch")
    slices = spec.layer_slices()
    if g.shape[1] != spec.widths[-1]:
        raise ValueError("gradient width does not match network output")
    grad = np.zeros(spec.n_params)
    for li in reversed(range(len(slices))):
        w, b, fan_in, fan_out = slices[li]
        if preacts[li] is not None:
            z = preacts[li]
            g = g * np.where(z > 0, 1.0, spec.negative_slope)
        h = inputs[li]
        grad[w] = (g.T @ h).ravel()
        grad[b] = g.sum(axis=0)
        W = params[w].reshape(fan_out, fan_in)
        g = g @ W
    return grad, (g[0] if single else g)


@dataclass
class ParamGroup:
    """A contiguous slice of the flat parameter vector with its own settings."""

    name: str
    size: int
    lr: float | None = None  # None -> optimizer default
    weight_decay: float | None = None  # None -> optimizer default


@dataclass
class _Live:
    """One group's live parameters: their positions in the flat vector, and
    their moments."""

    pos: np.ndarray | slice  # the group's slice when all of it is live
    m: np.ndarray
    v: np.ndarray

    def add(self, fresh: np.ndarray) -> None:
        """Make the parameters at `fresh` live, with zero moments."""
        zeros = np.zeros(fresh.size)
        self.pos = np.concatenate([self.pos, fresh])
        self.m = np.concatenate([self.m, zeros])
        self.v = np.concatenate([self.v, zeros])


@dataclass
class AdamWState:
    """Moments and hyperparameters for decoupled-weight-decay Adam.

    Moments are kept for the live parameters only: per group, those a
    gradient has ever reached, and every parameter of a group with nonzero
    decay. Any other parameter has zero moments, and an AdamW step leaves it
    as it is, so `m` and `v` read as the dense moments."""

    groups: list[ParamGroup]
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    live: list[_Live] = field(init=False, repr=False)  # one per group
    seen: np.ndarray = field(init=False, repr=False)  # True where a parameter is live

    def __post_init__(self):
        def need(ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(what)

        # with lr and eps finite and > 0, the dense update leaves a parameter
        # with zero gradient and moments alone; with eps = 0 it would be 0 / 0
        need(math.isfinite(self.lr) and self.lr > 0, "lr must be a finite number > 0")
        need(math.isfinite(self.eps) and self.eps > 0, "eps must be a finite number > 0")
        need(0 <= self.beta1 < 1, "beta1 must be in [0, 1)")
        need(0 <= self.beta2 < 1, "beta2 must be in [0, 1)")
        n = sum(g.size for g in self.groups)
        self.seen = np.zeros(n, dtype=bool)
        self.live = []
        for g, sl in self.group_slices():
            lr, wd = self.settings(g)
            need(math.isfinite(lr) and lr > 0, f"group {g.name}: lr must be a finite number > 0")
            need(math.isfinite(wd) and wd >= 0, f"group {g.name}: weight_decay must be a finite number >= 0")
            whole = wd > 0  # decay moves every parameter at every step
            self.seen[sl] = whole
            n = g.size if whole else 0
            self.live.append(_Live(sl if whole else np.empty(0, np.intp), np.zeros(n), np.zeros(n)))

    @property
    def n_params(self) -> int:
        return self.seen.shape[0]

    @property
    def m(self) -> np.ndarray:
        """The first moment of every parameter, as a new dense vector."""
        return self._dense("m")

    @property
    def v(self) -> np.ndarray:
        """The second moment of every parameter, as a new dense vector."""
        return self._dense("v")

    def _dense(self, moment: str) -> np.ndarray:
        out = np.zeros(self.n_params)
        for lv in self.live:
            out[lv.pos] = getattr(lv, moment)
        return out

    def settings(self, g: ParamGroup) -> tuple[float, float]:
        """A group's learning rate and weight decay."""
        return (self.lr if g.lr is None else g.lr), (self.weight_decay if g.weight_decay is None else g.weight_decay)

    def group_slices(self) -> list[tuple[ParamGroup, slice]]:
        out, pos = [], 0
        for g in self.groups:
            out.append((g, slice(pos, pos + g.size)))
            pos += g.size
        return out


def adamw_step(state: AdamWState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One AdamW update in place: mutates the moments and `params`, and
    returns `params`. Per group, the decoupled decay is taken from the
    parameters before the Adam step and subtracted after it.

    It reads the gradient of each group that is not live as a whole once,
    to find its nonzero entries, and makes them live; a group live as a
    whole is only checked to be finite. Then it gathers the live parameters
    and gradient entries, runs the dense update's arithmetic in the dense
    update's order on them, and scatters the parameters back. Its
    temporaries are the size of the live set, not of the parameter vector.
    A parameter that is not live has zero moments and gradient and no
    decay, so the dense update would move it by 0 / (0 + eps) = 0: the
    result has the dense update's bits. A non-finite gradient entry is
    nonzero, so it is found and refused before anything changes."""
    if params.shape != (state.n_params,) or grad.shape != (state.n_params,):
        raise ValueError("parameter/gradient shape does not match optimizer state")
    slices = state.group_slices()
    fresh = []  # per group, the offsets in it that this step makes live
    for (_, sl), lv in zip(slices, state.live):
        gs = grad[sl]
        if isinstance(lv.pos, slice):  # live as a whole
            ok, new = np.isfinite(gs).all(), None
        else:
            touched = np.flatnonzero(gs != 0)  # NaN != 0, so non-finite entries are found
            ok, new = np.isfinite(gs[touched]).all(), touched[~state.seen[sl][touched]]
        if not ok:
            raise NumericError("non-finite gradient passed to adamw_step")
        fresh.append(new)
    for (_, sl), lv, new in zip(slices, state.live, fresh):
        if new is not None and new.size:
            state.seen[sl][new] = True
            lv.add(new + sl.start)
    state.step += 1
    t = state.step
    c1, c2 = 1 - state.beta1**t, 1 - state.beta2**t
    for (g, _), lv in zip(slices, state.live):
        lr, wd = state.settings(g)
        m, v = lv.m, lv.v
        gl, p = grad[lv.pos], params[lv.pos]
        a = np.multiply(gl, 1 - state.beta1)
        m *= state.beta1
        m += a
        np.multiply(gl, 1 - state.beta2, out=a)
        a *= gl
        v *= state.beta2
        v += a
        denom = np.divide(v, c2)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step = np.divide(m, c1, out=a)
        step *= lr
        step /= denom
        if wd:
            np.multiply(p, lr * wd, out=denom)
        p -= step
        if wd:
            p -= denom
        params[lv.pos] = p
    return params
