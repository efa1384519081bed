"""Buffers for calling one training-path function on its own.

``forward``, ``backward``, the losses, ``step`` and the optimizer update write
into arrays their caller owns; ``trainer.train`` carves them from one
``_Workspace`` per run. A test that calls one of them alone takes fresh ones
from here.
"""

import numpy as np

from sphash.encoder import backward_scratch_size, flat_size
from sphash.losses import LossBuffers
from sphash.trainer import _Workspace


def activations(mod, x):
    """``forward``'s (hidden, codes) pair for the rows of x."""
    rows = np.shape(x)[:-1]
    return np.empty(rows + mod.b1.shape), np.empty(rows + mod.b2.shape)


def gradients(mod, rows):
    """``backward``'s (out, scratch) for a batch of rows."""
    h, l = mod.w2.shape
    return np.empty(flat_size((mod.input_dim,), h, l)), np.empty(backward_scratch_size(rows, h, l))


def loss_buffers(batch):
    """Fresh LossBuffers for a BatchCodes."""
    shapes = LossBuffers.shapes(batch.n_modalities, batch.batch_size, batch.stacked.shape[1])
    return LossBuffers(*map(np.empty, shapes))


def step_buffers(params, x_batch, capacity=None):
    """(workspace, views) for ``trainer.step``: a workspace for capacity rows (the
    batch's by default) and its views for the batch, with the features copied in."""
    rows = len(x_batch[0])
    workspace = _Workspace(params, capacity or rows)
    views = workspace.step_views(rows)
    for x, inputs in zip(x_batch, views.inputs):
        np.copyto(inputs, x)
    return workspace, views


def update_scratch(params):
    """The (2, params.flat.size) scratch of ``_OptimizerState.apply``."""
    return _Workspace(params, 0).update_scratch
