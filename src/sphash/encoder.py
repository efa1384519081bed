"""Per-modality hash functions.

Each modality owns a one-hidden-layer MLP with tanh activations whose output
is a relaxed code in (-1, 1)^L; taking the sign of the relaxed code gives the
binary code used for retrieval. One fixed random binary center per class
serves as the aggregation target; centers are never updated by training.

Every weight of every modality lives in one contiguous float64 vector,
``HashEncoderParams.flat``: per modality, in modality order, w1 (d x hidden),
b1 (hidden), w2 (hidden x L) and b2 (L), each row-major. This is also the
order of the checkpoint's float32 weight block. ``ModalityParams`` are views
into that vector, so one elementwise update of ``flat`` updates every
encoder; gradients and optimizer moments share the layout.

``forward`` returns the hidden activations along with the relaxed codes, and
``backward`` takes them back, so a training step evaluates each layer once.
Both write into arrays the caller supplies, so a training loop runs every
step in one preallocated workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .seeding import spawn_rng


def carve(vector: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive row-major views of the leading elements of a 1-d vector."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[offset : offset + size].reshape(shape))
        offset += size
    return views


@dataclass
class ModalityParams:
    """Weights of one modality's encoder, d -> hidden -> code: views into flat."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]


def flat_size(dims, hidden_dim: int, code_length: int) -> int:
    """Length of the flat weight vector for these architecture sizes."""
    return sum((d + 1) * hidden_dim + (hidden_dim + 1) * code_length for d in dims)


@dataclass
class HashEncoderParams:
    """All modality encoders: the flat weight vector plus the architecture sizes."""

    flat: np.ndarray
    dims: tuple[int, ...]
    hidden_dim: int
    code_length: int

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        size = flat_size(self.dims, self.hidden_dim, self.code_length)
        if self.flat.shape != (size,):
            raise ParameterError(f"flat weights have shape {self.flat.shape}, expected ({size},)")

    @property
    def modalities(self) -> list[ModalityParams]:
        """Per-modality w1, b1, w2, b2 views into flat, in layout order."""
        h, l = self.hidden_dim, self.code_length
        views = carve(self.flat, *[s for d in self.dims for s in ((d, h), (h,), (h, l), (l,))])
        return [ModalityParams(*views[i : i + 4]) for i in range(0, len(views), 4)]


def init_params(dims, hidden_dim: int, code_length: int, seed: int) -> HashEncoderParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if hidden_dim < 1 or code_length < 1:
        raise ParameterError("hidden_dim and code_length must be positive")
    if any(d < 1 for d in dims):
        raise ParameterError(f"feature dims must be positive, got {tuple(dims)}")
    rng = spawn_rng(seed, "encoder-init")
    params = HashEncoderParams(
        np.zeros(flat_size(dims, hidden_dim, code_length)), dims, hidden_dim, code_length
    )
    for mod in params.modalities:
        bound1 = 1.0 / np.sqrt(mod.input_dim)
        bound2 = 1.0 / np.sqrt(hidden_dim)
        mod.w1[:] = rng.uniform(-bound1, bound1, size=mod.w1.shape)
        mod.w2[:] = rng.uniform(-bound2, bound2, size=mod.w2.shape)
    return params


def forward(
    mod: ModalityParams, x: np.ndarray, out: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, codes): hidden = tanh(x W1 + b1), codes = tanh(hidden W2 + b2).

    out is the (hidden, codes) pair of float64 arrays to write them into;
    each layer is computed in place there.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != mod.input_dim:
        raise ParameterError(f"input dim {x.shape[-1]} != encoder dim {mod.input_dim}")
    hidden, codes = out
    np.matmul(x, mod.w1, out=hidden)
    hidden += mod.b1
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, mod.w2, out=codes)
    codes += mod.b2
    np.tanh(codes, out=codes)
    return hidden, codes


def encode(mod: ModalityParams, x: np.ndarray, out: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Relaxed codes tanh(tanh(x W1 + b1) W2 + b2), in out as ``forward`` computes them.

    A row's codes depend on no other row's values, but their last bits may depend
    on how many rows one call encodes: the BLAS kernel of a product varies with
    its shape. Bit-for-bit results need the same chunking.
    """
    return forward(mod, x, out)[1]


def backward_scratch_size(rows: int, hidden_dim: int, code_length: int) -> int:
    """Float64 elements of the scratch ``backward`` needs for a batch of rows."""
    return rows * (code_length + 2 * hidden_dim)


def backward(
    mod: ModalityParams, x: np.ndarray, hidden: np.ndarray, codes: np.ndarray,
    grad_codes: np.ndarray, out: np.ndarray, scratch: np.ndarray,
) -> np.ndarray:
    """Gradient of sum(grad_codes * codes) w.r.t. one modality's weights.

    hidden and codes are what ``forward(mod, x, ...)`` returned; grad_codes holds
    the upstream gradient of the loss with respect to the relaxed codes. The
    chain rule runs through both tanh layers. The result is one vector laid
    out like this modality's block of the flat weights: w1, b1, w2, b2.

    out is that vector to write into, and scratch a float64 vector of at
    least ``backward_scratch_size`` elements for the intermediates. No input
    is modified.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    grad_codes = np.atleast_2d(np.asarray(grad_codes, dtype=np.float64))
    if x.shape[-1] != mod.input_dim:
        raise ParameterError(f"input dim {x.shape[-1]} != encoder dim {mod.input_dim}")
    rows, (d, h), l = x.shape[0], mod.w1.shape, mod.w2.shape[1]
    got = (hidden.shape, codes.shape, grad_codes.shape)
    want = ((rows, h), (rows, l), (rows, l))
    if got != want:
        raise ParameterError(f"hidden, codes and grad shapes {got} != {want}")
    dz2, dz1, factor = carve(scratch, (rows, l), (rows, h), (rows, h))
    grad_w1, grad_b1, grad_w2, grad_b2 = carve(out, (d, h), (h,), (h, l), (l,))

    np.square(codes, out=dz2)  # dz2 = grad_codes * (1 - codes**2)
    np.subtract(1.0, dz2, out=dz2)
    np.multiply(grad_codes, dz2, out=dz2)
    np.matmul(dz2, mod.w2.T, out=dz1)  # dz1 = (dz2 W2^T) * (1 - hidden**2)
    np.square(hidden, out=factor)
    np.subtract(1.0, factor, out=factor)
    np.multiply(dz1, factor, out=dz1)
    np.matmul(x.T, dz1, out=grad_w1)
    np.sum(dz1, axis=0, out=grad_b1)
    np.matmul(hidden.T, dz2, out=grad_w2)
    np.sum(dz2, axis=0, out=grad_b2)
    return out


def binarize(codes: np.ndarray) -> np.ndarray:
    """Componentwise sign with the tie 0.0 -> +1; output int8 in {-1,+1}."""
    codes = np.asarray(codes)
    if not np.all(np.isfinite(codes)):
        raise ParameterError("cannot binarize non-finite codes")
    return np.where(codes >= 0, np.int8(1), np.int8(-1))


def check_capacity(class_count: int, code_length: int) -> None:
    """ParameterError unless {-1,+1}^code_length holds class_count distinct centers."""
    if 2**code_length < class_count:
        raise ParameterError(
            f"cannot place {class_count} distinct centers in {{-1,+1}}^{code_length}"
        )


def init_centers(class_count: int, code_length: int, seed: int) -> np.ndarray:
    """K distinct random {-1,+1}^L rows, fixed for the whole run."""
    if class_count < 1 or code_length < 1:
        raise ParameterError("class_count and code_length must be positive")
    check_capacity(class_count, code_length)
    rng = spawn_rng(seed, "hash-centers")
    centers = np.empty((class_count, code_length), dtype=np.int8)
    seen = set()
    for row in range(class_count):
        while True:
            cand = rng.integers(0, 2, size=code_length, dtype=np.int8) * 2 - 1
            key = cand.tobytes()
            if key not in seen:
                seen.add(key)
                centers[row] = cand
                break
    return centers
