"""Exploratory analysis: exact tSNE, distance matrices, average-linkage
clustering and clustered distance maps.

The tSNE here is the exact O(n^2) formulation: per-point bandwidths are
calibrated by bisecting sigma until the conditional distribution's
perplexity (2^H) hits the target, the joint P is the symmetrized
conditional, and the low-dimensional affinities Q follow a Student-t
with one degree of freedom. Optimization is plain gradient descent with
momentum, early exaggeration of P, and a per-iteration KL record.

P, W and Q are symmetric, so the iterate visits each unordered pair
once. It walks the rows in fixed blocks of _BLOCK: block s:e holds the
Student-t weights W[s:e, s:] with the diagonal and strict lower triangle
of its leading square set to zero, which leaves the strict upper
triangle. Z is twice the blocks' total; the gradient adds each block's
(P - Q) W terms to both of its rows and its columns; the KL is twice the
blocks' sum; exaggeration scales each block of P as it is read. Only P
and the blocks (about n^2 / 2 weights) are n x n in size. _BLOCK is a
constant, never taken from the machine, because the sums run in block
order and their bits must not depend on where the run happens; the
blocked sums changed the descent's last bits once, against the earlier
full-matrix iterate.

Each iterate builds one set of blocks: the KL recorded after a step is
taken at exactly the y that the next step differentiates, so the descent
passes that step's blocks to both kl_divergence and the next
kl_gradient, and a run of k iterations builds k + 1 sets instead of 2k.
The last step's blocks are dropped before the next ones are built.

Memory: at most one n x n matrix is built at a time beside what the
caller holds. pairwise_euclidean takes the squared row norms in blocks
of _BLOCK rows, builds the Gram matrix without a padded copy of its
input, and turns it into the distances in place, a row block at a time;
DistanceMatrix checks its matrix a row block at a time; _joint_p
symmetrizes its conditional P in place. tsne also takes a
DistanceMatrix, so the `tsne` command, like `distmap`, drops the images
once it has the distances, and both read only the images of the classes
they name. The distances are not dropped: only _joint_p reads them, but
the caller still holds them, so the descent holds them, P and one
step's affinity blocks, about 2.5 squares, and at CGCL size that sets
the `tsne` peak. The `tsne` command on 800 64x64 images peaks at 65 MB
of RSS and `distmap` on 360 at 59 MB (70 and 66 MB before; 84 and 85 MB
before that); a tSNE of 4,080 such images, at the paper's CGCL size, at
367 MB (441 MB before).

hcluster_average keeps a square of the active clusters only, in node-id
order. The square is bitwise symmetric, so its first minimum in
row-major order is the smallest (left, right) id pair: the tie rule
holds by construction. A merge copies the kept rows and columns into a
square one smaller, so at most two squares exist at once, about two
n x n float64 matrices (the (2n-1) x (2n-1) node-id matrix it replaced
traced 8.5). At n = 1200 it takes about 0.6 s (1.9 s before).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .numerics import Rng, Tensor, derive_seed

_P_FLOOR = 1e-12
_SIGMA_LO = 1e-20
_SIGMA_HI = 1e20
_TINY = 5e-324  # least positive float64: log of it is finite, so p = 0 adds 0 * finite
_BLOCK = 64  # rows per block of the tSNE iterate; of 32-256, 64 was among the fastest at n = 800 and 2000
_LOWER = np.tril(np.ones((_BLOCK, _BLOCK), dtype=bool))  # diagonal and below, per leading square
_GRAM_ROWS = 8  # pairwise_euclidean pads its Gram product to a multiple of this many rows


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative pairwise distances with a zero diagonal."""

    n: int
    d: Tensor

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.shape != (self.n, self.n):
            raise ArgumentError(f"distance matrix must be {self.n}x{self.n}, got {d.shape}")
        # Row block by row block, so no check builds an n x n temporary.
        for s, e in _row_blocks(self.n):
            rows = d[s:e]
            if not np.isfinite(rows).all() or (rows < 0).any():
                raise ArgumentError("distances must be finite and non-negative")
        for s, e in _row_blocks(self.n):
            asym = d[s:e, s:] - d[s:, s:e].T  # |a - b| = |b - a|: the upper strip covers both
            if np.abs(asym, out=asym).max(initial=0.0) > 1e-12:
                raise ArgumentError("distance matrix must be symmetric within 1e-12")
            del asym  # before the next strip is built
        if d.size and np.abs(np.diag(d)).max() != 0.0:
            raise ArgumentError("distance matrix diagonal must be zero")
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class TsneConfig:
    out_dims: int = 3
    perplexity: float = 30.0
    iters: int = 1000
    learning_rate: float = 200.0
    exaggeration: float = 12.0
    exaggeration_iters: int = 250
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.out_dims < 1:
            raise ArgumentError(f"out_dims must be >= 1, got {self.out_dims}")
        if not self.perplexity >= 1.0:  # so NaN fails too
            raise ArgumentError(f"perplexity must be >= 1, got {self.perplexity}")
        if self.iters < 1:
            raise ArgumentError(f"iters must be >= 1, got {self.iters}")
        if self.exaggeration_iters < 0:
            raise ArgumentError(f"exaggeration_iters must be >= 0, got {self.exaggeration_iters}")
        if self.iters < self.exaggeration_iters:
            raise ArgumentError("iters must be >= exaggeration_iters")
        # Each comparison is written so that NaN fails it.
        if not self.learning_rate > 0.0:  # inf is clamped as the rate is capped
            raise ArgumentError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.exaggeration < math.inf:
            raise ArgumentError(f"exaggeration must be finite and > 0, got {self.exaggeration}")
        for name in ("momentum_early", "momentum_late"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ArgumentError(f"{name} must be in [0, 1), got {getattr(self, name)}")


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates plus the KL trace of the descent."""

    y: Tensor
    kl_history: np.ndarray

    def __post_init__(self):
        kl = np.asarray(self.kl_history, dtype=np.float64)
        if not np.isfinite(kl).all():
            raise ArgumentError("kl_history must be finite")
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        object.__setattr__(self, "kl_history", kl)


@dataclass(frozen=True)
class Dendrogram:
    """Merge log of average-linkage clustering.

    merges holds n-1 records (left, right, height, size) where node ids
    0..n-1 are leaves and n+k is the cluster created by merge k.
    leaf_order is the depth-first traversal of the final tree, left
    child first.
    """

    merges: tuple
    leaf_order: tuple

    def __post_init__(self):
        heights = [m[2] for m in self.merges]
        for a, b in zip(heights, heights[1:]):
            if b < a - 1e-9 * max(1.0, abs(a)):
                raise ArgumentError("merge heights must be non-decreasing")
        order = list(self.leaf_order)
        if sorted(order) != list(range(len(order))):
            raise ArgumentError("leaf_order must be a permutation of the leaves")
        object.__setattr__(self, "merges", tuple(tuple(m) for m in self.merges))
        object.__setattr__(self, "leaf_order", tuple(int(i) for i in order))


def pairwise_euclidean(x: Tensor) -> DistanceMatrix:
    """All-pairs Euclidean distances between the rows of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ArgumentError(f"need a rank-2 array with n >= 2 rows, got shape {x.shape}")
    n, features = x.shape
    # Squared norms block by block: each row's sum is the same, and no
    # n x features square is built.
    sq = np.empty(n)
    for s, e in _row_blocks(n):
        xb = x[s:e]
        sq[s:e] = np.sum(xb * xb, axis=1)
    # OpenBLAS splits the Gram product's rows among its threads, and a
    # split inside a kernel tile sends rows through edge kernels that
    # round differently, so at n = 150 the bits followed the thread
    # count. The product of x padded with zero rows to a multiple of
    # _GRAM_ROWS gave the same bits under 1-4 threads at every n tried.
    # It is built here without a padded copy of x: the leading n8 rows
    # in one product, and the last r rows, zero-padded, stacked under
    # each _GRAM_ROWS of the others in turn, whose product with itself
    # holds the padded product's bits for the pair. (The product of
    # those rows and the padded ones alone differed at n = 63-150 with
    # 70 features, where OpenBLAS takes its small-matrix kernel.)
    r = n % _GRAM_ROWS
    n8 = n - r
    g = np.empty((n, n))
    if r:
        # The padded product read a contiguous copy, and numpy multiplies
        # a small strided x without BLAS, so a strided x is still copied.
        x = np.ascontiguousarray(x)
        pair = np.zeros((2 * _GRAM_ROWS, features))
        pair[_GRAM_ROWS : _GRAM_ROWS + r] = x[n8:]
        tail = pair[_GRAM_ROWS:]
        g[n8:, n8:] = (tail @ tail.T)[:r, :r]
        for s in range(0, n8, _GRAM_ROWS):
            e = s + _GRAM_ROWS
            pair[:_GRAM_ROWS] = x[s:e]
            prod = pair @ pair.T
            g[s:e, n8:] = prod[:_GRAM_ROWS, _GRAM_ROWS : _GRAM_ROWS + r]
            g[n8:, s:e] = prod[_GRAM_ROWS : _GRAM_ROWS + r, :_GRAM_ROWS]
    np.matmul(x[:n8], x[:n8].T, out=g[:n8, :n8])
    # The distances overwrite the Gram matrix a row block at a time.
    for s, e in _row_blocks(n):
        gb = g[s:e]
        gb *= 2.0
        np.subtract(sq[s:e, None] + sq[None, :], gb, out=gb)
        np.maximum(gb, 0.0, out=gb)
        np.sqrt(gb, out=gb)
    _symmetrize(g, 2.0)  # kill rounding asymmetry from the Gram product
    np.fill_diagonal(g, 0.0)
    return DistanceMatrix(n, g)


def calibrate_row(distances_row: Tensor, perplexity: float) -> tuple[float, Tensor]:
    """Find sigma so the row's conditional distribution has the target
    perplexity, by bisection on log(sigma).

    distances_row excludes the self distance. Returns (sigma, p_row)
    with p_row summing to 1; a row of all-zero distances degenerates to
    the uniform distribution.
    """
    row = np.asarray(distances_row, dtype=np.float64)
    if row.ndim != 1 or row.size < 1:
        raise ArgumentError(f"need a non-empty 1-d distance row, got shape {row.shape}")
    if not perplexity >= 1.0:  # so NaN fails too
        raise ArgumentError(f"perplexity must be >= 1, got {perplexity}")

    d2 = row * row
    if d2.max() == 0.0:
        return 1.0, np.full(row.size, 1.0 / row.size)

    target = math.log2(perplexity)
    # Dividing by c > 0 keeps the order of the row, so max(neg / c) is
    # top / c bit for bit and the shift needs no pass of its own.
    neg = -d2
    top = neg.max()
    plogp = np.empty_like(d2)

    def entropy_bits(sigma: float) -> tuple[float, Tensor]:
        c = 2.0 * sigma * sigma
        p = neg / c
        p -= top / c
        np.exp(p, out=p)
        p /= p.sum()
        if p.min() > 0.0:
            np.log2(p, out=plogp)
            np.multiply(plogp, p, out=plogp)
            return float(-plogp.sum()), p
        nz = p[p > 0.0]
        return float(-(nz * np.log2(nz)).sum()), p

    lo, hi = _SIGMA_LO, _SIGMA_HI
    sigma = 1.0
    h, p = entropy_bits(sigma)
    for _ in range(64):
        if abs(2.0 ** h - perplexity) <= 1e-5 * perplexity:
            break
        if h > target:  # too smooth: shrink sigma
            hi = sigma
        else:
            lo = sigma
        sigma = math.sqrt(lo * hi)
        h, p = entropy_bits(sigma)
    return sigma, p


def _joint_p(x: Tensor | DistanceMatrix, perplexity: float) -> Tensor:
    """The joint P of points x, or of a DistanceMatrix x."""
    d = (x if isinstance(x, DistanceMatrix) else pairwise_euclidean(x)).d
    n = len(d)
    cond = np.zeros((n, n))
    for i in range(n):
        _, p_row = calibrate_row(np.concatenate((d[i, :i], d[i, i + 1 :])), perplexity)
        cond[i, :i] = p_row[:i]
        cond[i, i + 1 :] = p_row[i:]
    del d
    p = _symmetrize(cond, 2.0 * n)
    np.maximum(p, _P_FLOOR, out=p)
    np.fill_diagonal(p, 0.0)
    return p


def _row_blocks(n: int):
    """The (start, end) ranges of _BLOCK rows that the n x n passes walk."""
    for s in range(0, n, _BLOCK):
        yield s, min(s + _BLOCK, n)


def _symmetrize(a: Tensor, divisor: float) -> Tensor:
    """(a + a.T) / divisor, written over the square a and returned.

    Each row block's upper strip and the mirrored column strip are read
    together, so the temporary is one strip. The two sums of a pair are
    the same bits, as IEEE addition commutes.
    """
    for s, e in _row_blocks(len(a)):
        strip = a[s:e, s:] + a[s:, s:e].T
        strip /= divisor
        a[s:e, s:] = strip
        a[s:, s:e] = strip.T
        del strip  # before the next one is built
    return a


def _student_q(y: Tensor) -> tuple[list, float]:
    """Unnormalized Student-t weights over the upper triangle, and Z.

    Returns (blocks, z): blocks[k] is W[s:e, s:] for the k-th row range
    of _row_blocks, with the diagonal and the strict lower triangle of
    its leading square zeroed, and z = sum(W) over all ordered pairs, so
    Q = W / z.
    """
    sq = np.sum(y * y, axis=1)
    blocks = []
    total = 0.0
    for s, e in _row_blocks(len(y)):
        w = sq[s:e, None] + sq[None, s:]
        gram = y[s:e] @ y[s:].T
        gram *= 2.0
        w -= gram  # squared distances, in the same order of operations as a + b - 2g
        np.maximum(w, 0.0, out=w)
        w += 1.0
        np.divide(1.0, w, out=w)
        w[:, : e - s][_LOWER[: e - s, : e - s]] = 0.0
        total += float(w.sum())
        blocks.append(w)
    return blocks, 2.0 * total


def kl_divergence(p: Tensor, y: Tensor, *, affinities=None) -> float:
    """KL(P || Q(y)) over off-diagonal pairs, the tSNE objective.

    P must be symmetric; pairs with p = 0 add nothing. affinities, when
    given, is _student_q(y), already built by the caller.
    """
    blocks, z = _student_q(y) if affinities is None else affinities
    total = 0.0
    for (s, e), w in zip(_row_blocks(len(p)), blocks):
        pb = p[s:e, s:]
        ratio = w / z
        np.maximum(ratio, _P_FLOOR, out=ratio)
        np.divide(pb, ratio, out=ratio)
        ratio[:, : e - s][_LOWER[: e - s, : e - s]] = 1.0  # log 1 = 0: pairs counted elsewhere
        np.maximum(ratio, _TINY, out=ratio)
        np.log(ratio, out=ratio)
        ratio *= pb
        total += float(ratio.sum())
    return 2.0 * total


def kl_gradient(p: Tensor, y: Tensor, *, affinities=None, exaggeration: float = 1.0) -> Tensor:
    """Analytic objective gradient: 4 sum_j (p-q)(y_i-y_j)/(1+||.||^2).

    P must be symmetric and is scaled by exaggeration as it is read.
    affinities, when given, is _student_q(y), already built by the caller.
    """
    blocks, z = _student_q(y) if affinities is None else affinities
    n = len(p)
    row_sums = np.zeros(n)
    ay = np.zeros_like(y)
    for (s, e), w in zip(_row_blocks(n), blocks):
        a = p[s:e, s:] * exaggeration
        a -= w / z
        a *= w
        row_sums[s:e] += a.sum(axis=1)
        row_sums[s:] += a.sum(axis=0)
        ay[s:e] += a @ y[s:]
        ay[s:] += a.T @ y[s:e]
    return 4.0 * (row_sums[:, None] * y - ay)


def tsne(x: Tensor | DistanceMatrix, cfg: TsneConfig = TsneConfig()) -> Embedding:
    """Embed the rows of x into cfg.out_dims dimensions.

    x is the points, one per row, or their DistanceMatrix: a caller that
    has the distances need not keep the points, and tsne(
    pairwise_euclidean(x), cfg) is tsne(x, cfg) bit for bit.

    Perplexity is clamped into [1, (n-1)/3]. The effective step size is
    the configured learning rate capped at max(1, n / exaggeration):
    plain momentum descent diverges on small point sets at the default
    rate of 200, and n/exaggeration is the usual stability bound. The
    run is fully deterministic in (x, cfg): init is a seeded Gaussian
    with stddev 1e-4 and the KL against the true (unexaggerated) P is
    recorded after every iteration.
    """
    shape = x.d.shape if isinstance(x, DistanceMatrix) else np.shape(x)
    if len(shape) != 2 or shape[0] < 4:
        raise ArgumentError(f"tsne needs at least 4 points, got shape {shape}")
    n = shape[0]
    perplexity = min(max(cfg.perplexity, 1.0), (n - 1) / 3.0)
    eta = min(cfg.learning_rate, max(1.0, n / cfg.exaggeration))

    p = _joint_p(x, perplexity)
    rng = Rng(derive_seed(cfg.seed, 0x54534E45))  # stream tag: tsne init
    y = rng.normal_array((n, cfg.out_dims), 0.0, 1e-4)
    velocity = np.zeros_like(y)

    kl_history = np.empty(cfg.iters)
    affinities = _student_q(y)
    for it in range(cfg.iters):
        exaggerating = it < cfg.exaggeration_iters
        grad = kl_gradient(p, y, affinities=affinities,
                           exaggeration=cfg.exaggeration if exaggerating else 1.0)
        momentum = cfg.momentum_early if exaggerating else cfg.momentum_late
        velocity = momentum * velocity - eta * grad
        y = y + velocity
        del affinities  # last step's blocks go before the next ones are built
        affinities = _student_q(y)
        kl_history[it] = kl_divergence(p, y, affinities=affinities)
    return Embedding(y, kl_history)


def hcluster_average(dm: DistanceMatrix) -> Dendrogram:
    """UPGMA: repeatedly merge the pair of clusters with the smallest
    average inter-cluster distance.

    Ties break toward the lexicographically smallest (left, right) node
    id pair. Cluster sizes weight the running distance update, so the
    height of each merge is the exact mean pairwise distance between
    the two merged clusters' leaves.

    The square holds the active clusters only, in node-id order: a merge
    copies the kept rows and columns into a square one smaller and puts
    the new cluster, whose id is the largest, last. The square mirrors
    the strict upper triangle of dm.d by selection, so it is bitwise
    symmetric, and its first minimum in row-major order is the smallest
    (left, right) id pair: the tie rule holds by construction. At most
    two squares of the active clusters exist at once, the old one and
    the new; at the start the square is one n x n float64 matrix.
    """
    n = dm.n
    if n < 2:
        raise ArgumentError(f"need at least 2 points to cluster, got {n}")

    d = np.where(np.tri(n, dtype=bool), dm.d.T, dm.d)  # selects, so a -0.0 keeps its sign
    np.fill_diagonal(d, np.inf)
    ids, sizes = list(range(n)), [1] * n
    merges = []
    for new in range(n, 2 * n - 1):
        m = len(ids)
        i, j = divmod(int(np.argmin(d)), m)
        si, sj = sizes[i], sizes[j]
        merges.append((ids[i], ids[j], float(d[i, j]), si + sj))

        # Lance-Williams update for average linkage, against every slot.
        row = (si * d[i] + sj * d[j]) / (si + sj)
        runs = ((0, i, 0), (i + 1, j, i), (j + 1, m, j - 1))  # kept (start, stop, to)
        nd = np.empty((m - 1, m - 1))
        for r0, r1, rt in runs:
            for c0, c1, ct in runs:
                nd[rt:rt + r1 - r0, ct:ct + c1 - c0] = d[r0:r1, c0:c1]
        nd[-1, :-1] = nd[:-1, -1] = np.delete(row, (i, j))
        nd[-1, -1] = np.inf
        d = nd
        ids = ids[:i] + ids[i + 1:j] + ids[j + 1:] + [new]
        sizes = sizes[:i] + sizes[i + 1:j] + sizes[j + 1:] + [si + sj]

    leaf_order, stack = [], [2 * n - 2]
    while stack:
        node = stack.pop()
        if node < n:
            leaf_order.append(node)
        else:
            stack += merges[node - n][1::-1]  # right, then left on top
    return Dendrogram(tuple(merges), tuple(leaf_order))


def clustered_map(dm: DistanceMatrix, dg: Dendrogram, labels) -> tuple[Tensor, np.ndarray]:
    """Reorder a distance matrix by dendrogram leaf order.

    Returns (reordered, ribbon): reordered[i, j] = d[perm(i), perm(j)]
    and ribbon[i] = labels[perm(i)], the class strip drawn along the
    map's edges.
    """
    labels = np.asarray(labels)
    if labels.shape != (dm.n,):
        raise ArgumentError(f"labels must have length {dm.n}, got shape {labels.shape}")
    perm = np.asarray(dg.leaf_order, dtype=np.int64)
    if perm.size != dm.n:
        raise ArgumentError("dendrogram and distance matrix disagree on n")
    return dm.d[np.ix_(perm, perm)], labels[perm]
