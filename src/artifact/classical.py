"""Classical Siamese baselines with manual numpy backprop.

Two weight-shared encoders embed the two barcodes; the squared Euclidean
distance d between the embeddings feeds a scalar head, and the whole model
is trained on the MSE between the head output and the 0/1 label:

- "logistic" head (default): y_hat = sigmoid(w d + c);
- "exp" head (the head argument of SiameseModel and train_siamese; no
  experiment config selects it): y_hat = 1 - exp(-d), parameter-free.

Encoders:

- MLP: input -> 128 -> 64 -> 32, ReLU between layers, linear final layer;
- CNN (square barcodes only): conv 3x3 x8 -> maxpool 2 -> conv 3x3 x16 ->
  maxpool 2 -> flatten -> dense 32, valid padding, stride 1, ReLU after
  each conv, linear final dense. The fixed stack needs a side of at least
  10 pixels, so only n in {8, 10} (sides 16 and 32) are supported.

Initialization is He-uniform by fan-in; the final embedding layer is scaled
by 0.01 so the initial distances are small and the MSE-through-sigmoid
gradient does not start saturated. Training runs optim.fit, the loop qnn_u
shares: full-batch Adam (1e-3) for at most 300 epochs, stopping early once
training accuracy is perfect and at least 50 epochs have elapsed. Weights
serialize to a single file: a JSON header describing the tensors, then
their raw bytes; loading builds a seed-0 model and overwrites its tensors.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .optim import accuracy, fit

DEFAULT_WIDTHS = (128, 64, 32)
DEFAULT_EMB_SCALE = 0.01
DEFAULT_LR = 1e-3
DEFAULT_EPOCHS = 300
MIN_EPOCHS_BEFORE_STOP = 50
MIN_CNN_SIDE = 10
WEIGHT_MAGIC = b"SWT1"


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    widths: tuple = DEFAULT_WIDTHS

    def kind(self) -> str:
        return "mlp"


@dataclass(frozen=True)
class CnnSpec:
    side: int
    kernel: int = 3
    channels: tuple = (8, 16)
    dense: int = 32

    def kind(self) -> str:
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


def _conv_forward(X, W, b):
    """Valid 2-D convolution, stride 1. X (M,H,W,Cin), W (k,k,Cin,Cout)."""
    M, H, Wd, Cin = X.shape
    k = W.shape[0]
    Cout = W.shape[3]
    Ho, Wo = H - k + 1, Wd - k + 1
    cols = np.empty((M, Ho, Wo, k * k * Cin))
    idx = 0
    for di in range(k):
        for dj in range(k):
            cols[..., idx * Cin:(idx + 1) * Cin] = X[:, di:di + Ho, dj:dj + Wo, :]
            idx += 1
    out = cols @ W.reshape(k * k * Cin, Cout) + b
    return out, (X.shape, cols)


def _conv_backward(g, W, cache):
    """g (M,Ho,Wo,Cout) -> (gX, gW, gb)."""
    Xshape, cols = cache
    k = W.shape[0]
    Cin, Cout = W.shape[2], W.shape[3]
    M, Ho, Wo, _ = g.shape
    gW = (cols.reshape(-1, k * k * Cin).T @ g.reshape(-1, Cout)).reshape(W.shape)
    gb = g.sum(axis=(0, 1, 2))
    gcols = g @ W.reshape(k * k * Cin, Cout).T
    gX = np.zeros(Xshape)
    idx = 0
    for di in range(k):
        for dj in range(k):
            gX[:, di:di + Ho, dj:dj + Wo, :] += gcols[..., idx * Cin:(idx + 1) * Cin]
            idx += 1
    return gX, gW, gb


def _pool_forward(X):
    """2x2 max pool, stride 2, floor division (odd trailing row/col dropped)."""
    M, H, W, C = X.shape
    Ho, Wo = H // 2, W // 2
    blocks = (X[:, :2 * Ho, :2 * Wo, :]
              .reshape(M, Ho, 2, Wo, 2, C)
              .transpose(0, 1, 3, 5, 2, 4)
              .reshape(M, Ho, Wo, C, 4))
    arg = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, arg[..., None], axis=-1)[..., 0]
    return out, (X.shape, arg)


def _pool_backward(g, cache):
    Xshape, arg = cache
    M, H, W, C = Xshape
    Ho, Wo = H // 2, W // 2
    gblocks = np.zeros((M, Ho, Wo, C, 4))
    np.put_along_axis(gblocks, arg[..., None], g[..., None], axis=-1)
    gX = np.zeros(Xshape)
    gX[:, :2 * Ho, :2 * Wo, :] = (gblocks
                                  .reshape(M, Ho, Wo, C, 2, 2)
                                  .transpose(0, 1, 4, 2, 5, 3)
                                  .reshape(M, 2 * Ho, 2 * Wo, C))
    return gX


# -------------------------------------------------------------- encoders


class MlpEncoder:
    def __init__(self, spec: MlpSpec, rng):
        self.spec = spec
        dims = [spec.input_dim] + list(spec.widths)
        self.W = []
        self.b = []
        for i in range(len(spec.widths)):
            w = he_uniform(rng, dims[i], (dims[i], dims[i + 1]))
            if i == len(spec.widths) - 1:
                w = w * DEFAULT_EMB_SCALE
            self.W.append(w)
            self.b.append(np.zeros(dims[i + 1]))

    def param_names(self):
        return ([f"enc.W{i}" for i in range(len(self.W))]
                + [f"enc.b{i}" for i in range(len(self.b))])

    def params(self):
        return list(self.W) + list(self.b)

    def set_params(self, values):
        L = len(self.W)
        self.W = [np.asarray(v) for v in values[:L]]
        self.b = [np.asarray(v) for v in values[L:]]

    def forward(self, X):
        acts = [X]
        h = X
        L = len(self.W)
        for i in range(L):
            z = h @ self.W[i] + self.b[i]
            h = np.maximum(z, 0.0) if i < L - 1 else z
            acts.append(h)
        return h, acts

    def backward(self, acts, g_emb, grads):
        """Accumulate into grads = [gW0, .., gW(L-1), gb0, .., gb(L-1)]."""
        g = g_emb
        L = len(self.W)
        for i in reversed(range(L)):
            if i < L - 1:
                g = g * (acts[i + 1] > 0)
            grads[i] += acts[i].T @ g
            grads[L + i] += g.sum(axis=0)
            g = g @ self.W[i].T


class CnnEncoder:
    def __init__(self, spec: CnnSpec, rng):
        self.spec = spec
        k = spec.kernel
        c1, c2 = spec.channels
        self.W1 = he_uniform(rng, k * k * 1, (k, k, 1, c1))
        self.b1 = np.zeros(c1)
        self.W2 = he_uniform(rng, k * k * c1, (k, k, c1, c2))
        self.b2 = np.zeros(c2)
        flat = spec.flat_after_stack()
        self.Wd = he_uniform(rng, flat, (flat, spec.dense)) * DEFAULT_EMB_SCALE
        self.bd = np.zeros(spec.dense)

    def param_names(self):
        return ["enc.W1", "enc.b1", "enc.W2", "enc.b2", "enc.Wd", "enc.bd"]

    def params(self):
        return [self.W1, self.b1, self.W2, self.b2, self.Wd, self.bd]

    def set_params(self, values):
        self.W1, self.b1, self.W2, self.b2, self.Wd, self.bd = (
            np.asarray(v) for v in values)

    def forward(self, X):
        M = X.shape[0]
        s = self.spec.side
        img = X.reshape(M, s, s, 1)
        z1, cache1 = _conv_forward(img, self.W1, self.b1)
        a1 = np.maximum(z1, 0.0)
        p1, pcache1 = _pool_forward(a1)
        z2, cache2 = _conv_forward(p1, self.W2, self.b2)
        a2 = np.maximum(z2, 0.0)
        p2, pcache2 = _pool_forward(a2)
        flat = p2.reshape(M, -1)
        emb = flat @ self.Wd + self.bd
        return emb, (cache1, z1, pcache1, cache2, z2, pcache2, p2.shape, flat)

    def backward(self, cache, g_emb, grads):
        """Accumulate into grads = [gW1, gb1, gW2, gb2, gWd, gbd]."""
        cache1, z1, pcache1, cache2, z2, pcache2, p2shape, flat = cache
        grads[4] += flat.T @ g_emb
        grads[5] += g_emb.sum(axis=0)
        g = (g_emb @ self.Wd.T).reshape(p2shape)
        g = _pool_backward(g, pcache2)
        g = g * (z2 > 0)
        g, gW2, gb2 = _conv_backward(g, self.W2, cache2)
        grads[2] += gW2
        grads[3] += gb2
        g = _pool_backward(g, pcache1)
        g = g * (z1 > 0)
        _, gW1, gb1 = _conv_backward(g, self.W1, cache1)
        grads[0] += gW1
        grads[1] += gb1


# --------------------------------------------------------- siamese model


class SiameseModel:
    """Weight-shared encoder pair + distance head, trained by MSE."""

    def __init__(self, spec, rng, head: str = "logistic"):
        if head not in ("logistic", "exp"):
            raise ValueError(f"unknown head {head!r}")
        self.spec = spec
        self.head = head
        if isinstance(spec, MlpSpec):
            self.encoder = MlpEncoder(spec, rng)
        elif isinstance(spec, CnnSpec):
            self.encoder = CnnEncoder(spec, rng)
        else:
            raise TypeError("spec must be MlpSpec or CnnSpec")
        self.w_out = 1.0
        self.c_out = -1.0

    # parameters are the encoder tensors plus the head scalars
    def param_names(self):
        return self.encoder.param_names() + ["head.w", "head.c"]

    def params(self):
        return self.encoder.params() + [np.float64(self.w_out),
                                        np.float64(self.c_out)]

    def set_params(self, values):
        self.encoder.set_params(values[:-2])
        self.w_out = float(np.asarray(values[-2]).reshape(-1)[0])
        self.c_out = float(np.asarray(values[-1]).reshape(-1)[0])

    def encode(self, X):
        return self.encoder.forward(np.asarray(X, dtype=float))[0]

    def forward(self, X1, X2):
        h1, c1 = self.encoder.forward(np.asarray(X1, dtype=float))
        h2, c2 = self.encoder.forward(np.asarray(X2, dtype=float))
        d = np.sum((h1 - h2) ** 2, axis=1)
        if self.head == "logistic":
            z = self.w_out * d + self.c_out
            p = 1.0 / (1.0 + np.exp(-z))
        else:
            p = 1.0 - np.exp(-d)
        return p, (c1, c2, h1, h2, d)

    def loss_and_gradients(self, X1, X2, y):
        """MSE loss, predictions, and grads aligned with params()."""
        y = np.asarray(y, dtype=float)
        M = y.size
        p, (c1, c2, h1, h2, d) = self.forward(X1, X2)
        loss = float(np.mean((p - y) ** 2))
        dLdp = 2.0 * (p - y) / M
        if self.head == "logistic":
            dz = dLdp * p * (1.0 - p)  # sigmoid derivative
            gw = float(np.dot(dz, d))
            gc = float(np.sum(dz))
            dd = dz * self.w_out
        else:
            gw = 0.0
            gc = 0.0
            dd = dLdp * np.exp(-d)
        gh1 = (2.0 * dd)[:, None] * (h1 - h2)
        enc_grads = [np.zeros_like(t) for t in self.encoder.params()]
        self.encoder.backward(c1, gh1, enc_grads)
        self.encoder.backward(c2, -gh1, enc_grads)
        grads = enc_grads + [np.float64(gw), np.float64(gc)]
        return loss, p, grads


# ------------------------------------------------------------- training


@dataclass(frozen=True)
class SiameseResult:
    model: SiameseModel
    records: tuple  # of optim.EpochRecord
    stopped_early: bool


def samples_to_arrays(samples):
    X1 = np.asarray([s.x1 for s in samples], dtype=float)
    X2 = np.asarray([s.x2 for s in samples], dtype=float)
    y = np.asarray([s.label for s in samples], dtype=float)
    return X1, X2, y


def train_siamese(train_samples, spec, seed: int = 0, head: str = "logistic",
                  epochs: int = DEFAULT_EPOCHS, lr: float = DEFAULT_LR,
                  test_samples=None, record_every: int = 1) -> SiameseResult:
    """Full-batch Adam (optim.fit); stops early once training accuracy is
    perfect and at least MIN_EPOCHS_BEFORE_STOP epochs have run. Epoch 0
    records the pre-training baseline."""
    model = SiameseModel(spec, np.random.default_rng(seed), head=head)
    X1, X2, y = samples_to_arrays(train_samples)
    if test_samples is not None:
        tX1, tX2, ty = samples_to_arrays(test_samples)

    def loss_and_grad(p):
        model.set_params(p)
        return model.loss_and_gradients(X1, X2, y)

    def test_acc(p):
        if test_samples is None:
            return float("nan")
        model.set_params(p)
        return accuracy(model.forward(tX1, tX2)[0], ty)

    params, records, stopped_early = fit(
        model.params(), loss_and_grad, y, test_acc, epochs, lr, record_every,
        MIN_EPOCHS_BEFORE_STOP)
    model.set_params(params)
    return SiameseResult(model, records, stopped_early)


# -------------------------------------------------------- serialization


def _spec_to_dict(spec):
    if isinstance(spec, MlpSpec):
        return {"kind": "mlp", "input_dim": spec.input_dim,
                "widths": list(spec.widths)}
    return {"kind": "cnn", "side": spec.side, "kernel": spec.kernel,
            "channels": list(spec.channels), "dense": spec.dense}


def _spec_from_dict(d):
    if d["kind"] == "mlp":
        return MlpSpec(int(d["input_dim"]), tuple(d["widths"]))
    return CnnSpec(int(d["side"]), int(d["kernel"]), tuple(d["channels"]),
                   int(d["dense"]))


def save_weights(model: SiameseModel, path) -> None:
    """Single file: magic, JSON header length, JSON header, raw tensor bytes."""
    tensors = []
    blobs = []
    offset = 0
    for name, value in zip(model.param_names(), model.params()):
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        tensors.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "nbytes": arr.nbytes})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    header = json.dumps({
        "format": "siamese-weights", "version": 1,
        "encoder": _spec_to_dict(model.spec), "head": model.head,
        "tensors": tensors,
    }).encode()
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_weights(path) -> SiameseModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != WEIGHT_MAGIC:
            raise ValueError(f"not a weight file: bad magic {magic!r}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode())
        if header.get("format") != "siamese-weights":
            raise ValueError("not a siamese weight file")
        body = fh.read()
    model = SiameseModel(_spec_from_dict(header["encoder"]),
                         np.random.default_rng(0), head=header["head"])
    values = []
    for t in header["tensors"]:
        raw = body[t["offset"]:t["offset"] + t["nbytes"]]
        arr = np.frombuffer(raw, dtype=np.float64).reshape(t["shape"]).copy()
        values.append(arr)
    model.set_params(values)
    return model
