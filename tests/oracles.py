"""Independent reference implementations used as test oracles.

Everything here is written the dumbest defensible way (plain loops, direct
formula transcription) and stays independent of the library code paths it
checks.
"""

import csv

import numpy as np


def naive_average_precision(relevance) -> float:
    """AP by the definition: mean over relevant ranks of precision@rank."""
    hits = 0
    total = 0.0
    for rank, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / rank
    if hits == 0:
        return 0.0
    return total / hits


def naive_mean_average_precision(query_codes, query_labels, gallery_codes, gallery_labels) -> float:
    """MAP with explicit per-query ranking: distance ascending, index tie-break."""
    ap_values = []
    for qi in range(len(query_codes)):
        dist = [(int(np.sum(query_codes[qi] != gallery_codes[gi])), gi)
                for gi in range(len(gallery_codes))]
        dist.sort()
        relevance = [
            int(np.dot(query_labels[qi].astype(int), gallery_labels[gi].astype(int)) >= 1)
            for _, gi in dist
        ]
        ap_values.append(naive_average_precision(relevance))
    return sum(ap_values) / len(ap_values)


def ranked_relevance_reference(query_codes, query_labels, gallery_codes, gallery_labels):
    """(Q, G) relevance in rank order: a stable int64 argsort of elementwise distances."""
    distances = (query_codes[:, None, :] != gallery_codes[None, :, :]).sum(axis=2, dtype=np.int64)
    order = np.argsort(distances, axis=1, kind="stable")  # ties keep gallery index order
    shared = query_labels.astype(np.int64) @ gallery_labels.astype(np.int64).T
    return np.take_along_axis(shared >= 1, order, axis=1)


def naive_pr_curve(ranked_relevance, num_points: int):
    """(recall, precision) at num_points interpolated recall levels, scanning every rank.

    Per query, precision at level t is the best precision over the ranks from
    the first one whose recall reaches t; queries with no relevant item add
    zero precision and are counted in the mean.
    """
    ranked = np.asarray(ranked_relevance)
    levels = np.linspace(0.0, 1.0, num_points)
    ranks = np.arange(1, ranked.shape[1] + 1)
    precision_sum = np.zeros(num_points)
    for rel in ranked:
        total = rel.sum()
        if total == 0:
            continue
        cum = np.cumsum(rel)
        recall = cum / total
        precision = cum / ranks
        best_from = np.maximum.accumulate(precision[::-1])[::-1]
        at = np.searchsorted(recall, levels, side="left")
        precision_sum += best_from[np.minimum(at, len(recall) - 1)]
    return list(zip(levels.tolist(), (precision_sum / len(ranked)).tolist()))


def grid_argmin_weight(loss: float, gamma: float, grid_points: int = 10**6) -> float:
    """Brute-force minimizer of w*loss + gamma*(w^2/2 - w) over a [0,1] grid."""
    w = np.linspace(0.0, 1.0, grid_points)
    objective = w * loss + gamma * (0.5 * w * w - w)
    return float(w[int(np.argmin(objective))])


def gce_reference(u, r: float):
    """Direct transcription of the robust transform."""
    u = np.asarray(u, dtype=np.float64)
    return (1.0 - r) * (1.0 - u**r) / r + r * (1.0 - u)


def grid_max_instance_loss(n_modalities: int, r: float, points_per_axis: int = 101) -> float:
    """Brute-force maximum of sum_m g(v_m) over v in [0,1]^M."""
    axis = np.linspace(0.0, 1.0, points_per_axis)
    best = -np.inf
    grids = np.meshgrid(*([axis] * n_modalities), indexing="ij")
    total = np.zeros_like(grids[0])
    for g in grids:
        total = total + gce_reference(g, r)
    return float(total.max())


def softmax_reference(logits):
    """Plain softmax used to cross-check probability kernels."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def central_difference_grads(fn, arrays, step: float = 1e-4):
    """Central finite differences of scalar fn w.r.t. a list of arrays."""
    grads = []
    for target in arrays:
        grad = np.zeros_like(target)
        for idx in np.ndindex(target.shape):
            original = target[idx]
            target[idx] = original + step
            up = fn()
            target[idx] = original - step
            down = fn()
            target[idx] = original
            grad[idx] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric) -> float:
    """Max |a - n| scaled by the largest gradient magnitude involved."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-8)
        worst = max(worst, float(np.abs(a - n).max(initial=0.0) / scale))
    return worst


def encode_reference(mod, x):
    """Relaxed codes by the formula, one fresh array per operation."""
    return np.tanh(np.tanh(np.asarray(x, dtype=np.float64) @ mod.w1 + mod.b1) @ mod.w2 + mod.b2)


class NestedOptimizer:
    """SGD / adaptive moments with one moment array per parameter array.

    ``params`` and ``grads`` are nested lists, one list of arrays per
    modality; every array is updated in place by its own loop iteration.
    """

    def __init__(self, kind: str, params):
        self.kind = kind
        self.step_count = 0
        self.m = [[np.zeros_like(a) for a in mod] for mod in params]
        self.v = [[np.zeros_like(a) for a in mod] for mod in params]

    def apply(self, params, grads, lr: float) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        if self.kind == "sgd":
            for mod, grad in zip(params, grads):
                for arr, g in zip(mod, grad):
                    arr -= lr * g
            return
        self.step_count += 1
        correction1 = 1.0 - beta1**self.step_count
        correction2 = 1.0 - beta2**self.step_count
        for mod, grad, ms, vs in zip(params, grads, self.m, self.v):
            for arr, g, m, v in zip(mod, grad, ms, vs):
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g * g
                arr -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)


def final_weight_dump_reference(path):
    """The last epoch's (instance_index, weight) arrays of a weight dump, by csv.DictReader.

    None when the dump has no rows. Columns are found by header name and only
    the epoch, index and weight cells are parsed.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return None
    epochs = [int(row["epoch"]) for row in rows]
    last_epoch = max(epochs)
    final = [row for row, epoch in zip(rows, epochs) if epoch == last_epoch]
    idx = np.array([int(row["instance_index"]) for row in final])
    weights = np.array([float(row["weight"]) for row in final])
    return idx, weights


def weight_histogram_reference(weights, bins: int = 20):
    """(bin_left, bin_right, density) rows of weights over [0, 1], one bin per loop step.

    Each weight goes to the bin whose left edge it reaches and whose right edge
    it stays below, so a weight on an edge falls in the bin that edge opens;
    1.0 goes to the last bin. Density is the bin's count over all weights.
    """
    edges = np.linspace(0.0, 1.0, bins + 1).tolist()
    counts = [0] * bins
    for weight in weights:
        for b in range(bins):
            if edges[b] <= weight < edges[b + 1] or (b == bins - 1 and weight == 1.0):
                counts[b] += 1
                break
    return [(edges[b], edges[b + 1], counts[b] / len(weights)) for b in range(bins)]
