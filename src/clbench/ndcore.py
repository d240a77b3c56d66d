"""Dense float64 numeric core: a flat-parameter MLP classifier with analytic
gradients, softmax cross-entropy, and bias-corrected Adam.

Parameters and gradients are 1-D float64 arrays laid out by `ModelSpec`;
`adam_step` updates them in place, every other function is pure. `forward`
and `backward` take a batch (batch_rows, input_dim) or any stack of them,
(..., batch_rows, input_dim), each batch running its 2-D matmuls; gradients
are (..., n_params). The private `_forward`, `_ce_dlogits` and `_backprop`
run the same math on checked inputs over prebuilt `ModelSpec.layers` views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelSpec",
    "AdamState",
    "init_params",
    "forward",
    "ce_loss",
    "ce_dlogits",
    "backward",
    "backward_from_dlogits",
    "adam_step",
    "grad_check",
]


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the classifier: input -> ReLU hidden stack -> linear head.

    A flat parameter vector holds, per affine layer, the row-major weight
    matrix (fan_in, fan_out) followed by the bias (fan_out,).
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = (128, 64)
    output_dim: int = 2
    # (weight start, bias start, bias end, fan_in, fan_out) per layer
    _offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.input_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ValueError("all layer dims must be >= 1")
        if self.output_dim < 2:
            raise ValueError("output_dim must be >= 2")
        offsets = []
        start = 0
        for fan_in, fan_out in self.layer_dims():
            bias = start + fan_in * fan_out
            offsets.append((start, bias, bias + fan_out, fan_in, fan_out))
            start = bias + fan_out
        object.__setattr__(self, "_offsets", tuple(offsets))

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per affine layer, head included."""
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    @property
    def n_params(self) -> int:
        return self._offsets[-1][2]

    def layers(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views per layer into a flat parameter or gradient vector,
        or into a stack of them of shape (..., n_params); in-place edits
        write through to `flat`."""
        stack = flat.shape[:-1]
        return [
            (flat[..., w:b].reshape(stack + (fan_in, fan_out)), flat[..., b:end])
            for w, b, end, fan_in, fan_out in self._offsets
        ]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights, zero biases, drawn in layer order."""
    params = np.zeros(spec.n_params)
    for W, _ in spec.layers(params):
        bound = np.sqrt(6.0 / (W.shape[0] + W.shape[1]))
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return params


def _check_batch(spec: ModelSpec, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim < 2:
        raise ValueError(f"batch must be at least 2-D, got ndim={batch.ndim}")
    if batch.shape[-1] != spec.input_dim:
        raise ValueError(f"batch has {batch.shape[-1]} columns, spec expects {spec.input_dim}")
    return batch


def forward(params: np.ndarray, spec: ModelSpec, batch: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Logits of shape (..., batch_rows, output_dim).

    When a list is passed as `acts`, the input of every layer (the batch,
    then each post-ReLU hidden activation) is appended to it, which is what
    `backward_from_dlogits` needs.
    """
    return _forward(spec.layers(params), _check_batch(spec, batch), acts)


def _forward(layers: list, h: np.ndarray, acts: list | None = None) -> np.ndarray:
    """`forward` over prebuilt `ModelSpec.layers` views and a checked batch."""
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        if acts is not None:
            acts.append(h)
        h = h @ W
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    if not np.isfinite(h).all():
        raise FloatingPointError("non-finite logits")
    return h


def _check_labels(labels, n_classes: int, shape: tuple) -> np.ndarray:
    """Integer labels of the given batch shape, each in 0..n_classes-1."""
    labels = np.asarray(labels)
    if labels.shape != shape:
        raise ValueError(f"labels of shape {labels.shape} do not match batch of shape {shape}")
    labels = labels.astype(np.int64, copy=False)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range for {n_classes} classes")
    return labels


def ce_loss(logits: np.ndarray, labels) -> float:
    """Mean softmax cross-entropy over batch rows."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits.shape[-1], logits.shape[:-1])
    z = logits - logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=-1))
    picked = np.take_along_axis(z, labels[..., None], axis=-1)[..., 0]
    return float(np.mean(logsumexp - picked))


def ce_dlogits(logits: np.ndarray, labels) -> np.ndarray:
    """d(mean CE)/d(logits) = (softmax - onehot) / batch_rows, per batch."""
    return _ce_dlogits(logits, _check_labels(labels, logits.shape[-1], logits.shape[:-1]))


def _ce_dlogits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """`ce_dlogits` for int64 labels already checked against the logits."""
    d = logits - logits.max(axis=-1, keepdims=True)
    np.exp(d, out=d)
    d /= d.sum(axis=-1, keepdims=True)  # softmax
    rows = d.reshape(-1, d.shape[-1])  # a view: d is freshly allocated
    rows[np.arange(len(rows)), labels.ravel()] -= 1.0
    d /= logits.shape[-2]
    return d


def backward_from_dlogits(
    params: np.ndarray, spec: ModelSpec, acts: list, dlogits: np.ndarray
) -> np.ndarray:
    """Backprop an upstream logits gradient to a parameter gradient, given
    the layer inputs `forward` collected for the same params and batch.
    Returns one gradient per batch of the stack, shape (..., n_params);
    a sum of several logit-space losses' dlogits backprops in one pass.
    """
    d = np.asarray(dlogits, dtype=np.float64)
    grad = np.empty(d.shape[:-2] + (spec.n_params,))
    _backprop(spec.layers(params), acts, d, spec.layers(grad))
    return grad


def _backprop(layers: list, acts: list, d: np.ndarray, grads: list) -> None:
    """`backward_from_dlogits` into the layer views `grads` of a buffer."""
    for i in range(len(layers) - 1, -1, -1):
        gW, gb = grads[i]
        a = acts[i].swapaxes(-1, -2)
        if d.shape[-2] == 1:
            # a one-row batch's weight gradient is an outer product: the same
            # exact products as matmul, without a per-slice BLAS call
            np.multiply(a, d, out=gW)
        else:
            np.matmul(a, d, out=gW)
        np.add.reduce(d, axis=-2, out=gb)
        if i > 0:
            # acts[i] is post-ReLU; its positive support marks active units
            d = d @ layers[i][0].T
            d *= acts[i] > 0.0


def backward(params: np.ndarray, spec: ModelSpec, batch: np.ndarray, labels) -> np.ndarray:
    """Gradient of mean CE loss per batch, shape (..., n_params)."""
    acts: list = []
    logits = forward(params, spec, batch, acts)
    return backward_from_dlogits(params, spec, acts, ce_dlogits(logits, labels))


@dataclass
class AdamState:
    """First/second moment accumulators for bias-corrected Adam."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    learning_rate: float = 1e-3

    @classmethod
    def fresh(cls, n: int, learning_rate: float, **kw) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), learning_rate=learning_rate, **kw)


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of `params` and the moments, all in
    place; returns `params` and `state` for convenience."""
    if params.size != state.m.size or grad.size != state.m.size:
        raise ValueError("params/grad length does not match optimizer state")
    t = state.step + 1
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    state.step = t
    return params, state


def min_abs_preactivation(params: np.ndarray, spec: ModelSpec, batch: np.ndarray) -> float:
    """Distance of the closest hidden preactivation to the ReLU kink."""
    acts: list = []
    forward(params, spec, batch, acts)
    hidden = zip(acts, spec.layers(params)[:-1])
    return min((float(np.abs(h @ W + b).min()) for h, (W, b) in hidden), default=np.inf)


def grad_check(spec: ModelSpec, seed: int, h: float = 1e-5, batch_rows: int = 4) -> float:
    """Max relative error of analytic vs central-difference CE gradients.

    Relative error per parameter is |a - n| / max(1, |a|, |n|). The loss is
    not differentiable where a ReLU preactivation sits inside the
    finite-difference window, so batches landing that close to a kink are
    redrawn.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be > 0")
    rng = np.random.default_rng(seed)
    theta = init_params(spec, rng)
    for _ in range(100):
        batch = rng.normal(size=(batch_rows, spec.input_dim))
        if min_abs_preactivation(theta, spec, batch) > 10.0 * h:
            break
    labels = rng.integers(0, spec.output_dim, size=batch_rows)
    analytic = backward(theta, spec, batch, labels)
    numeric = np.empty_like(analytic)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        up = ce_loss(forward(theta, spec, batch), labels)
        theta[i] = orig - h
        down = ce_loss(forward(theta, spec, batch), labels)
        theta[i] = orig
        numeric[i] = (up - down) / (2.0 * h)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
