"""Classical Siamese baselines with manual numpy backprop.

Two weight-shared encoders embed the two barcodes; the squared Euclidean
distance d between the embeddings feeds a logistic head,
y_hat = sigmoid(w d + c), and the whole model is trained on the MSE between
the head output and the 0/1 label.

Encoders:

- MLP: input -> 128 -> 64 -> 32, ReLU between layers, linear final layer;
- CNN (square barcodes only): conv 3x3 x8 -> maxpool 2 -> conv 3x3 x16 ->
  maxpool 2 -> flatten -> dense 32, valid padding, stride 1, ReLU after
  each conv, linear final dense. The fixed stack needs a side of at least
  10 pixels, so only n in {8, 10} (sides 16 and 32) are supported.

Initialization is He-uniform by fan-in; the final embedding layer is scaled
by 0.01 so the initial distances are small and the MSE-through-sigmoid
gradient does not start saturated. Training runs optim.fit, the loop qnn_u
shares: full-batch Adam (1e-3), in place on SiameseModel.params, for at
most 300 epochs, stopping early once training accuracy is perfect and at
least 50 epochs have elapsed.

Each train_siamese call builds its encoder inputs once (encoder.prepare:
the CNN's first-layer im2col columns, which depend on the images alone,
kept in the barcodes' own dtype, uint8 for a Dataset; the training columns
are cast to float once per call). The test split is evaluated with
cache=False: no backward caches, and the CNN pools by a maximum over the
four strided views of each 2x2 block and runs its conv/pool stack
EVAL_BLOCK images at a time, casting each block's columns to float just
before the first conv multiplies them. In training, each pool's routing
mask also carries the preceding ReLU's derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .optim import accuracy, fit, lay_out

DEFAULT_WIDTHS = (128, 64, 32)
DEFAULT_EMB_SCALE = 0.01
DEFAULT_LR = 1e-3
DEFAULT_EPOCHS = 300
MIN_EPOCHS_BEFORE_STOP = 50
MIN_CNN_SIDE = 10
# images per conv/pool block in the cache-free forward: at side 32 one
# block's layer-1 activations (10 x 30 x 30 x 8 floats, 0.58 MB) fit in a
# 2 MB L2 cache, where the whole 80-pair test split's (4.6 MB) would not
EVAL_BLOCK = 10


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    widths: tuple = DEFAULT_WIDTHS

    def kind(self) -> str:
        """Encoder family; perfbench/tracing.py names its spans by it."""
        return "mlp"


@dataclass(frozen=True)
class CnnSpec:
    side: int
    kernel: int = 3
    channels: tuple = (8, 16)
    dense: int = 32

    def kind(self) -> str:
        """Encoder family; perfbench/tracing.py names its spans by it."""
        return "cnn"

    def flat_after_stack(self) -> int:
        s = self.side
        for _ in self.channels:
            s = s - (self.kernel - 1)
            if s < 2:
                raise ValueError(f"side {self.side} too small for the fixed "
                                 "conv/pool stack")
            s = s // 2
        return s * s * self.channels[-1]


def cnn_spec_for(n: int) -> CnnSpec:
    """Square-image spec for a 2**n-pixel barcode; n must be even and the
    side at least 10 so the fixed stack fits."""
    if n % 2 != 0:
        raise ValueError(f"barcode of 2**{n} pixels is not square")
    side = 2 ** (n // 2)
    if side < MIN_CNN_SIDE:
        raise ValueError(f"side {side} below the minimum {MIN_CNN_SIDE} for "
                         "the fixed conv/pool stack")
    spec = CnnSpec(side)
    spec.flat_after_stack()  # raises if the stack does not fit
    return spec


def he_uniform(rng, fan_in: int, shape) -> np.ndarray:
    lim = np.sqrt(6.0 / fan_in)
    return rng.uniform(-lim, lim, shape)


# ----------------------------------------------------------- conv pieces


def _im2col(X, k):
    """Valid stride-1 patches: X (M,H,W,Cin) -> (M,H-k+1,W-k+1,k*k*Cin),
    the last axis ordered (row offset, column offset, channel) like W."""
    patches = sliding_window_view(X, (k, k), axis=(1, 2))  # (M,Ho,Wo,Cin,k,k)
    return patches.transpose(0, 1, 2, 4, 5, 3).reshape(*patches.shape[:3], -1)


def _conv_forward(X, W, b):
    """Valid 2-D convolution, stride 1. X (M,H,W,Cin), W (k,k,Cin,Cout)."""
    cols = _im2col(X, W.shape[0])
    out = cols @ W.reshape(-1, W.shape[3])
    out += b
    return out, (X.shape, cols)


def _conv_backward(g, W, cache):
    """g (M,Ho,Wo,Cout) -> (gX, gW, gb); gX is None for a cache without an
    input shape (the first layer, whose input gradient is never used).
    gX gets one product per kernel offset, each on g as a 2-D matrix: the
    (M*Ho*Wo, Cin) products stay cache-sized where one k*k*Cin-wide product
    would not, and a 4-D operand would make matmul loop over its leading
    axes."""
    Xshape, cols = cache
    k = W.shape[0]
    Cin, Cout = W.shape[2], W.shape[3]
    M, Ho, Wo, _ = g.shape
    gW = (cols.reshape(-1, k * k * Cin).T @ g.reshape(-1, Cout)).reshape(W.shape)
    gb = g.sum(axis=(0, 1, 2))
    if Xshape is None:
        return None, gW, gb
    g = g.reshape(-1, Cout)
    gX = np.zeros(Xshape)
    for di in range(k):
        for dj in range(k):
            gX[:, di:di + Ho, dj:dj + Wo, :] += (g @ W[di, dj].T).reshape(
                M, Ho, Wo, Cin)
    return gX, gW, gb


def _pool_views(X):
    """The (0,0), (0,1), (1,0), (1,1) strided views of the 2x2 blocks."""
    Ho, Wo = X.shape[1] // 2, X.shape[2] // 2
    return [X[:, i:2 * Ho:2, j:2 * Wo:2, :] for i in (0, 1) for j in (0, 1)]


def _pool_max(X):
    """2x2 max pool, stride 2, floor division, and no routing: (out, None)."""
    v = _pool_views(X)
    return np.maximum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3])), None


def _pool_forward(X):
    """_pool_max plus a boolean mask laid out like X that routes each
    block's gradient to its first maximum in _pool_views order (binary
    pixels make positive ties). X is a ReLU output, so a block whose
    maximum is 0 routes nothing: the mask is also the ReLU's derivative."""
    out = _pool_max(X)[0]
    free = out > 0
    mask = np.zeros(X.shape, dtype=bool)
    for v, hit in zip(_pool_views(X), _pool_views(mask)):
        np.equal(v, out, out=hit)
        hit &= free
        free ^= hit  # hit lies within free
    return out, mask


def _pool_backward(g, mask):
    """Each block's gradient on all four entries, kept where mask routes."""
    gX = np.zeros(mask.shape)
    for v in _pool_views(gX):
        v[...] = g
    gX *= mask
    return gX


# -------------------------------------------------------------- encoders


class MlpEncoder:
    """tensors: the weights W0..W(L-1), then the biases b0..b(L-1)."""

    def __init__(self, spec: MlpSpec, rng):
        dims = [spec.input_dim] + list(spec.widths)
        W = [he_uniform(rng, fan_in, (fan_in, fan_out))
             for fan_in, fan_out in zip(dims, dims[1:])]
        W[-1] = W[-1] * DEFAULT_EMB_SCALE
        self.tensors = W + [np.zeros(width) for width in dims[1:]]

    def prepare(self, X):
        """The encoder's input: the barcodes as floats."""
        return np.asarray(X, dtype=float)

    def forward(self, X, cache=True):
        h = self.prepare(X)
        acts = [h]
        L = len(self.tensors) // 2
        W, b = self.tensors[:L], self.tensors[L:]
        for i in range(L):
            z = h @ W[i] + b[i]
            h = np.maximum(z, 0.0) if i < L - 1 else z
            acts.append(h)
        return h, (acts if cache else None)

    def backward(self, acts, g_emb, grads):
        """Accumulate into grads, laid out like tensors. The input's own
        gradient is never used, so the first layer stops at its weights."""
        g = g_emb
        L = len(self.tensors) // 2
        for i in reversed(range(L)):
            if i < L - 1:
                g = g * (acts[i + 1] > 0)
            grads[i] += acts[i].T @ g
            grads[L + i] += g.sum(axis=0)
            if i:
                g = g @ self.tensors[i].T


class CnnEncoder:
    """tensors: W1, b1, W2, b2 (the convolutions), Wd, bd (the dense)."""

    def __init__(self, spec: CnnSpec, rng):
        self.spec = spec
        k = spec.kernel
        c1, c2 = spec.channels
        W1 = he_uniform(rng, k * k * 1, (k, k, 1, c1))
        W2 = he_uniform(rng, k * k * c1, (k, k, c1, c2))
        flat = spec.flat_after_stack()
        Wd = he_uniform(rng, flat, (flat, spec.dense)) * DEFAULT_EMB_SCALE
        self.tensors = [W1, np.zeros(c1), W2, np.zeros(c2), Wd,
                        np.zeros(spec.dense)]

    def prepare(self, X):
        """First-layer im2col columns (M, Ho, Wo, k*k) of (M, side*side)
        barcodes, in the barcodes' own dtype (uint8 rows give uint8
        columns, 1/8 of the float bytes); columns already prepared pass
        through unchanged."""
        X, s = np.asarray(X), self.spec.side
        if X.ndim == 4:
            return X
        if X.shape[-1] != s * s:
            raise ValueError(f"CNN of side {s} takes barcodes of {s * s} "
                             f"pixels, got {X.shape[-1]}")
        return _im2col(X.reshape(-1, s, s, 1), self.spec.kernel)

    def _conv_stack(self, cols1, pool):
        """Both conv/ReLU/pool layers on float columns: p2 and (cache1,
        mask1, cache2, mask2). Columns of another dtype are cast here, an
        exact cast for the 0/1 pixels."""
        W1, b1, W2, b2 = self.tensors[:4]
        cols1 = cols1.astype(float, copy=False)
        a1 = cols1 @ W1.reshape(-1, b1.size)
        a1 += b1
        np.maximum(a1, 0.0, out=a1)
        p1, mask1 = pool(a1)
        a2, cache2 = _conv_forward(p1, W2, b2)
        np.maximum(a2, 0.0, out=a2)
        p2, mask2 = pool(a2)
        return p2, ((None, cols1), mask1, cache2, mask2)

    def forward(self, X, cache=True):
        """Embeddings and the backward cache. With cache=False (evaluation)
        the conv/pool stack runs EVAL_BLOCK images at a time, so each
        block's activations stay in cache, and the pools route nothing;
        the dense layer runs once over all rows either way, and each
        block is cast to float just before it is multiplied."""
        Wd, bd = self.tensors[4:]
        cols1 = self.prepare(X)
        if cache:
            p2, caches = self._conv_stack(cols1, _pool_forward)
        else:
            p2 = np.concatenate([
                self._conv_stack(cols1[i:i + EVAL_BLOCK], _pool_max)[0]
                for i in range(0, len(cols1), EVAL_BLOCK)])
        flat = p2.reshape(len(p2), -1)
        emb = flat @ Wd + bd
        if not cache:
            return emb, None
        return emb, (*caches, p2.shape, flat)

    def backward(self, cache, g_emb, grads):
        """Accumulate into grads, laid out like tensors."""
        W1, _, W2, _, Wd, _ = self.tensors
        cache1, mask1, cache2, mask2, p2shape, flat = cache
        grads[4] += flat.T @ g_emb
        grads[5] += g_emb.sum(axis=0)
        g = _pool_backward((g_emb @ Wd.T).reshape(p2shape), mask2)
        g, gW2, gb2 = _conv_backward(g, W2, cache2)
        grads[2] += gW2
        grads[3] += gb2
        _, gW1, gb1 = _conv_backward(_pool_backward(g, mask1), W1, cache1)
        grads[0] += gW1
        grads[1] += gb1


# --------------------------------------------------------- siamese model


class SiameseModel:
    """Weight-shared encoder pair + logistic distance head, trained by MSE.

    params is one float64 vector: the encoder tensors, then the head scalars
    w_out and c_out; grads has the same layout. Every tensor and scalar is
    a view into them (optim.lay_out), so an in-place update of params is
    what the next forward pass reads.
    """

    def __init__(self, spec, rng):
        if isinstance(spec, MlpSpec):
            self.encoder = MlpEncoder(spec, rng)
        elif isinstance(spec, CnnSpec):
            self.encoder = CnnEncoder(spec, rng)
        else:
            raise TypeError("spec must be MlpSpec or CnnSpec")
        self.params, self.grads, views, grad_views = lay_out(
            self.encoder.tensors + [1.0, -1.0])
        self.encoder.tensors = views[:-2]
        self.w_out, self.c_out = views[-2:]
        self._encoder_grads = grad_views[:-2]

    def forward(self, X1, X2, cache=True):
        """Predictions for raw barcodes or encoder.prepare() inputs, and
        the backward caches (None with cache=False)."""
        h1, c1 = self.encoder.forward(X1, cache)
        h2, c2 = self.encoder.forward(X2, cache)
        d = np.sum((h1 - h2) ** 2, axis=1)
        z = self.w_out * d + self.c_out
        p = 1.0 / (1.0 + np.exp(-z))
        return p, ((c1, c2, h1, h2, d) if cache else None)

    def loss_and_gradients(self, X1, X2, y):
        """MSE loss, predictions, and the gradient vector grads (laid out
        like params, and overwritten by the next call)."""
        y = np.asarray(y, dtype=float)
        M = y.size
        p, (c1, c2, h1, h2, d) = self.forward(X1, X2)
        loss = float(np.mean((p - y) ** 2))
        dLdp = 2.0 * (p - y) / M
        dz = dLdp * p * (1.0 - p)  # sigmoid derivative
        self.grads.fill(0.0)
        self.grads[-2] = np.dot(dz, d)  # w_out
        self.grads[-1] = np.sum(dz)  # c_out
        dd = dz * self.w_out
        gh1 = (2.0 * dd)[:, None] * (h1 - h2)
        self.encoder.backward(c1, gh1, self._encoder_grads)
        self.encoder.backward(c2, -gh1, self._encoder_grads)
        return loss, p, self.grads


# ------------------------------------------------------------- training


@dataclass(frozen=True)
class SiameseResult:
    model: SiameseModel
    records: tuple  # of optim.EpochRecord
    stopped_early: bool


def train_siamese(train_samples, spec, seed: int = 0,
                  epochs: int = DEFAULT_EPOCHS, lr: float = DEFAULT_LR,
                  test_samples=None, record_every: int = 1) -> SiameseResult:
    """Full-batch Adam (optim.fit); stops early once training accuracy is
    perfect and at least MIN_EPOCHS_BEFORE_STOP epochs have run. Epoch 0
    records the pre-training baseline."""
    model = SiameseModel(spec, np.random.default_rng(seed))
    prepare = model.encoder.prepare
    # every epoch reads the training inputs, so they are cast to float once
    X1, X2 = (prepare(X).astype(float, copy=False)
              for X in (train_samples.X1, train_samples.X2))
    y = train_samples.y
    if test_samples is not None:
        tX1, tX2 = prepare(test_samples.X1), prepare(test_samples.X2)

    def loss_and_grad():
        return model.loss_and_gradients(X1, X2, y)[:2]

    def test_acc():
        if test_samples is None:
            return float("nan")
        return accuracy(model.forward(tX1, tX2, cache=False)[0],
                        test_samples.y)

    records, stopped_early = fit(
        model.params, model.grads, loss_and_grad, y, test_acc, epochs, lr,
        record_every, MIN_EPOCHS_BEFORE_STOP)
    return SiameseResult(model, records, stopped_early)
