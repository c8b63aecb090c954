"""Dense-network substrate: flat-parameter MLPs with hand-rolled reverse-mode
gradients, plus the AdamW update rule.

Everything is float64. Forward/backward never mutate their inputs; the
optimizer updates the parameter vector and its moments in place. Parameters
live in a single flat array laid out layer-major (weight matrix row-major,
then bias, for each layer in order), so snapshots and parameter averaging are
trivial.

The LeakyReLU is branchless: max(a*z, z) forward and max(z > 0, a) times the
incoming gradient backward, two and three whole-array ufuncs per hidden
layer. For a slope a in [0, 1] (which `MlpSpec` enforces) these give the
bits of `np.where(z > 0, z, a*z)` and `np.where(z > 0, 1, a)` at every
pre-activation, signed zeros and subnormals included, save that a*z is NaN
at slope 0 for z = +inf, where `np.where` keeps +inf. Such a row's output is
non-finite either way. On 1,024 rows of 64 units a `np.where` took
600-800 us, the two ufuncs ~30 us (one BLAS thread, shared 2-vCPU Xeon).

The optimizer keeps dense moments, one float64 per parameter, and steps every
parameter at every step, in place. It runs its elementwise operations one
block of at most `ADAMW_BLOCK` parameters at a time, so the arrays a block
reads and writes stay in cache, and its only temporaries are two
block-sized workspace rows. Every operation is elementwise, so the blocked
step keeps the bits of the same operations over whole arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

# parameters per AdamW block: a block's six float64 arrays (params, grad, m, v
# and the two workspace rows) take 1.5 MiB, within a 2 MiB L2 cache. Of
# 8,192 to 65,536, it gave the fastest steady-state step on multiset 10x8.
ADAMW_BLOCK = 32_768


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., output) of a LeakyReLU MLP, and the
    slope a of its negative side.

    Widths are integers >= 1 (not bools or floats). The slope is a real in
    [0, 1]: only there is max(a*z, z) the LeakyReLU and max(z > 0, a) its
    derivative, which is how the forward and backward compute them. It is
    not -0.0 either, which would leave max(a*z, z) two zeros of opposite
    sign to choose from at z = +0.0. A snapshot's arch is checked here too,
    so this is the one check of an MLP architecture."""

    widths: tuple[int, ...]
    negative_slope: float = 0.01

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError("MlpSpec needs at least one hidden layer")
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool) and w >= 1 for w in self.widths):
            raise ValueError(f"layer widths must be integers >= 1, got {self.widths!r}")
        a = self.negative_slope
        if not (isinstance(a, numbers.Real) and not isinstance(a, bool) and 0 <= a <= 1 and math.copysign(1, a) > 0):
            raise ValueError(f"negative_slope must be a real number in [0, 1] (not -0.0), got {a!r}")

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

    Per layer, z = h @ W.T, then the bias is added in place; per hidden
    layer, the LeakyReLU is max(a*z, z), one multiply and one in-place
    maximum. The cache holds each layer's input and each hidden layer's z.
    """
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got {params.shape}")
    single = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if h.shape[1] != spec.widths[0]:
        raise ValueError(f"input width {h.shape[1]} != spec input {spec.widths[0]}")
    slices, slope = spec.layer_slices(), spec.negative_slope
    inputs = []  # per-layer input activations
    preacts = []  # per-layer pre-activations (None for the final linear layer)
    for li, (w, b, fan_in, fan_out) in enumerate(slices):
        W = params[w].reshape(fan_out, fan_in)
        inputs.append(h)
        z = h @ W.T
        z += params[b]
        if li < len(slices) - 1:
            preacts.append(z)
            h = np.multiply(z, slope)
            np.maximum(h, z, out=h)
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
    shape the forward call produced. Per hidden layer, the LeakyReLU's
    derivative is max(z > 0, a), which for a in [0, 1] is 1 where z > 0 and
    a elsewhere; it is built in one array that the incoming gradient then
    multiplies in place.
    """
    inputs, preacts = cache
    single = dout.ndim == 1
    g = np.atleast_2d(np.asarray(dout, dtype=np.float64))
    if g.shape[0] != inputs[0].shape[0]:
        raise ValueError("gradient batch does not match cached forward batch")
    slices, slope = spec.layer_slices(), spec.negative_slope
    if g.shape[1] != spec.widths[-1]:
        raise ValueError("gradient width does not match network output")
    grad = np.zeros(spec.n_params)
    for li in reversed(range(len(slices))):
        w, b, fan_in, fan_out = slices[li]
        if preacts[li] is not None:
            d = np.greater(preacts[li], 0.0).astype(np.float64)
            np.maximum(d, slope, out=d)
            d *= g
            g = d
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
    `workspace` two rows of `min(n_params, ADAMW_BLOCK)` floats that
    `adamw_step` reuses, block after block, for its temporaries."""

    groups: list[ParamGroup]
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    workspace: np.ndarray = field(init=False, repr=False)  # two block-sized rows of temporaries for adamw_step

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
            # a size < 1 would shift every later group's slice onto the wrong parameters
            need(isinstance(g.size, (int, np.integer)) and g.size >= 1,
                 f"group {g.name}: size must be an integer >= 1")
            lr, wd = self.settings(g)
            need(math.isfinite(lr) and lr > 0, f"group {g.name}: lr must be a finite number > 0")
            need(math.isfinite(wd) and wd >= 0, f"group {g.name}: weight_decay must be a finite number >= 0")
        n = sum(g.size for g in self.groups)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.workspace = np.empty((2, min(n, ADAMW_BLOCK)))

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
    returns `params`. It runs group by group, and within a group one block
    of at most `ADAMW_BLOCK` parameters at a time, with the block's
    temporaries in the state's workspace, so it allocates no
    parameter-sized array. Per group, the decoupled decay is taken from the
    parameters before the Adam step and subtracted after it. A non-finite
    gradient entry is refused before anything changes: a first pass over
    the blocks checks them all."""
    if params.shape != (state.n_params,) or grad.shape != (state.n_params,):
        raise ValueError("parameter/gradient shape does not match optimizer state")
    n, block = state.n_params, ADAMW_BLOCK
    for lo in range(0, n, block):
        if not np.isfinite(grad[lo:lo + block]).all():
            raise NumericError("non-finite gradient passed to adamw_step")
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1, c2 = 1 - b1**t, 1 - b2**t
    for g, sl in state.group_slices():
        lr, wd = state.settings(g)
        for lo in range(sl.start, sl.stop, block):
            blk = slice(lo, min(lo + block, sl.stop))
            gb, m, v, p = grad[blk], state.m[blk], state.v[blk], params[blk]
            step, denom = state.workspace[:, : blk.stop - lo]
            np.multiply(gb, 1 - b1, out=step)
            m *= b1
            m += step
            np.multiply(gb, 1 - b2, out=step)
            step *= gb
            v *= b2
            v += step
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            np.divide(m, c1, out=step)
            step *= lr
            step /= denom
            if wd:
                np.multiply(p, lr * wd, out=denom)
            p -= step
            if wd:
                p -= denom
    return params
