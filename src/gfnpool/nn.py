"""Dense-network substrate: flat-parameter MLPs with hand-rolled reverse-mode
gradients, plus the AdamW update rule.

Everything is float64. Forward/backward never mutate their inputs; the
optimizer updates the parameter vector and its moments in place. Parameters
live in a single flat array laid out layer-major (weight matrix row-major,
then bias, for each layer in order), so snapshots and parameter averaging are
trivial.

The optimizer keeps dense moments, one float64 per parameter, and steps every
parameter at every step, in place, with no parameter-sized temporaries.
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
    """The cache of the forwards of `caches` stacked in turn, with its rows
    taken in `order`, which :func:`mlp_backward` takes as the cache of one
    forward over those rows. It equals that forward's cache in value, though
    not always in bits: BLAS may pick its kernel by the size of a call, so a
    row's activations can differ in the last place with the number of rows
    that share its call."""
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
class AdamWState:
    """Moments and hyperparameters for decoupled-weight-decay Adam.

    `m` and `v` hold one moment per parameter of the flat vector, and
    `workspace` two rows of the same length that `adamw_step` reuses for
    its temporaries."""

    groups: list[ParamGroup]
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    workspace: np.ndarray = field(init=False, repr=False)  # two rows of temporaries for adamw_step

    def __post_init__(self):
        def need(ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(what)

        # with lr and eps finite and > 0, a parameter with zero gradient,
        # zero moments and no decay stays as it is; with eps = 0 it would be 0 / 0
        need(math.isfinite(self.lr) and self.lr > 0, "lr must be a finite number > 0")
        need(math.isfinite(self.eps) and self.eps > 0, "eps must be a finite number > 0")
        need(0 <= self.beta1 < 1, "beta1 must be in [0, 1)")
        need(0 <= self.beta2 < 1, "beta2 must be in [0, 1)")
        for g in self.groups:
            lr, wd = self.settings(g)
            need(math.isfinite(lr) and lr > 0, f"group {g.name}: lr must be a finite number > 0")
            need(math.isfinite(wd) and wd >= 0, f"group {g.name}: weight_decay must be a finite number >= 0")
        n = sum(g.size for g in self.groups)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.workspace = np.empty((2, n))

    @property
    def n_params(self) -> int:
        return self.m.shape[0]

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
    returns `params`. It allocates no parameter-sized temporaries: its
    arithmetic runs in the state's workspace. Per group, the decoupled decay
    is taken from the parameters before the Adam step and subtracted after
    it. A non-finite gradient entry is refused before anything changes."""
    if params.shape != (state.n_params,) or grad.shape != (state.n_params,):
        raise ValueError("parameter/gradient shape does not match optimizer state")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient passed to adamw_step")
    state.step += 1
    t = state.step
    m, v, (a, b) = state.m, state.v, state.workspace
    np.multiply(grad, 1 - state.beta1, out=a)
    m *= state.beta1
    m += a
    np.multiply(grad, 1 - state.beta2, out=a)
    a *= grad
    v *= state.beta2
    v += a
    c1, c2 = 1 - state.beta1**t, 1 - state.beta2**t
    for g, sl in state.group_slices():
        lr, wd = state.settings(g)
        p, step, denom = params[sl], a[sl], b[sl]
        np.divide(v[sl], c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m[sl], c1, out=step)
        step *= lr
        step /= denom
        if wd:
            np.multiply(p, lr * wd, out=denom)
        p -= step
        if wd:
            p -= denom
    return params
