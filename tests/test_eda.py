import hashlib
import math

import numpy as np
import pytest

from glyphlab import (
    ArgumentError,
    Dendrogram,
    DistanceMatrix,
    Rng,
    TsneConfig,
    calibrate_row,
    clustered_map,
    hcluster_average,
    kl_divergence,
    kl_gradient,
    pairwise_euclidean,
    tsne,
)
from glyphlab.eda import _BLOCK, _joint_p, _row_blocks, _student_q
from glyphlab.numerics import derive_seed


def brute_force_upgma(d):
    """Reference average-linkage from raw pairwise distances; ties break
    toward the smallest (left, right) node-id pair."""
    n = len(d)
    members = {i: [i] for i in range(n)}
    active = list(range(n))
    merges = []
    nxt = n
    while len(active) > 1:
        best = None
        for ai, a in enumerate(active):
            for b in active[ai + 1 :]:
                dist = float(np.mean([d[x][y] for x in members[a] for y in members[b]]))
                key = (dist, a, b)
                if best is None or key < best:
                    best = key
        dist, a, b = best
        merges.append((a, b, dist, len(members[a]) + len(members[b])))
        members[nxt] = members[a] + members[b]
        active.remove(a)
        active.remove(b)
        active.append(nxt)
        active.sort()
        nxt += 1
    return merges


def reference_calibrate_row(row, perplexity):
    """calibrate_row as a fresh shift, exp and gather per bisection step."""
    row = np.asarray(row, dtype=np.float64)
    d2 = row * row
    if d2.max() == 0.0:
        return 1.0, np.full(row.size, 1.0 / row.size)
    target = math.log2(perplexity)

    def entropy_bits(sigma):
        logits = -d2 / (2.0 * sigma * sigma)
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        nz = p[p > 0.0]
        return float(-(nz * np.log2(nz)).sum()), p

    lo, hi = 1e-20, 1e20
    sigma = 1.0
    h, p = entropy_bits(sigma)
    for _ in range(64):
        if abs(2.0 ** h - perplexity) <= 1e-5 * perplexity:
            break
        if h > target:
            hi = sigma
        else:
            lo = sigma
        sigma = math.sqrt(lo * hi)
        h, p = entropy_bits(sigma)
    return sigma, p


def full_w(y):
    """The n x n W reassembled from _student_q's upper-triangle blocks."""
    n = len(y)
    blocks, z = _student_q(y)
    w = np.zeros((n, n))
    for (s, e), block in zip(_row_blocks(n), blocks):
        w[s:e, s:] = block
    return w + w.T, z


def reference_q(y):
    """Student-t Q and W as one expression each, without output buffers."""
    sq = np.sum(y * y, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.maximum(d2, 0.0, out=d2)
    w = 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    return w / w.sum(), w


def reference_tsne(x, cfg):
    """The descent built from two fresh Qs per iterate: one for the
    gradient at y, one for the KL after the step."""
    n = x.shape[0]
    perplexity = min(max(cfg.perplexity, 1.0), (n - 1) / 3.0)
    eta = min(cfg.learning_rate, max(1.0, n / cfg.exaggeration))
    p = _joint_p(x, perplexity)
    y = Rng(derive_seed(cfg.seed, 0x54534E45)).normal_array((n, cfg.out_dims), 0.0, 1e-4)
    velocity = np.zeros_like(y)
    kl_history = np.empty(cfg.iters)
    for it in range(cfg.iters):
        exaggerating = it < cfg.exaggeration_iters
        p_eff = p * cfg.exaggeration if exaggerating else p
        q, w = reference_q(y)
        a = (p_eff - q) * w
        grad = 4.0 * (a.sum(axis=1)[:, None] * y - a @ y)
        momentum = cfg.momentum_early if exaggerating else cfg.momentum_late
        velocity = momentum * velocity - eta * grad
        y = y + velocity
        q, _ = reference_q(y)
        mask = p > 0.0
        kl_history[it] = float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-12))))
    return y, kl_history


def random_distance_matrix(rng, n):
    return pairwise_euclidean(rng.uniform_array((n, 3), -5.0, 5.0))


def merge_log_digest(dg):
    """sha256 of the merge ids and sizes, the height bytes and the leaf order."""
    h = hashlib.sha256()
    h.update(np.array([m[:2] + m[3:] for m in dg.merges], dtype=np.int64).tobytes())
    h.update(np.array([m[2] for m in dg.merges], dtype=np.float64).tobytes())
    h.update(np.array(dg.leaf_order, dtype=np.int64).tobytes())
    return h.hexdigest()


def euclidean_150():
    return pairwise_euclidean(Rng(150).uniform_array((150, 8), -5.0, 5.0))


def integer_ties_60():
    up = np.triu(np.random.default_rng(60).integers(1, 4, size=(60, 60)).astype(np.float64), 1)
    return DistanceMatrix(60, up + up.T)


def offset_lower_and_negative_zero_40():
    """Half the lower triangle 5e-13 above the upper, and d[3, 17] = -0.0,
    the unique minimum."""
    rng = np.random.default_rng(40)
    up = np.triu(rng.uniform(1.0, 9.0, size=(40, 40)), 1)
    d = up + up.T
    d[np.tril(rng.random((40, 40)) < 0.5, -1)] += 5e-13
    d[3, 17], d[17, 3] = -0.0, 0.0
    return DistanceMatrix(40, d)


def reference_pairwise_euclidean(x):
    """pairwise_euclidean with its squared norms taken over the whole
    n x features square at once."""
    n = x.shape[0]
    pad = -n % 8
    xp = np.concatenate([x, np.zeros((pad, x.shape[1]))]) if pad else x
    sq = np.sum(x * x, axis=1)
    gram = (xp @ xp.T)[:n, :n]
    gram *= 2.0
    d = sq[:, None] + sq[None, :]
    d -= gram
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    d = d + d.T
    d *= 0.5
    np.fill_diagonal(d, 0.0)
    return d


class TestPairwiseEuclidean:
    @pytest.mark.parametrize("n", [2, 63, 65, 150])
    def test_blocked_norms_match_reference_bitwise(self, n):
        base = Rng(40 + n).uniform_array((n, 2 * 70 + 1), 0.0, 1.0)
        for x in (base[:, 1::2], np.asfortranarray(base[:, :70]), base[::-1, :70]):
            assert not x.flags.c_contiguous
            got = pairwise_euclidean(x).d
            assert got.tobytes() == reference_pairwise_euclidean(x).tobytes()

    def test_identical_rows_distance_zero(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert pairwise_euclidean(x).d[0, 1] == 0.0

    def test_hand_arithmetic(self):
        d = pairwise_euclidean(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d.d[0, 1] == 5.0

    def test_symmetric_zero_diagonal(self):
        d = pairwise_euclidean(Rng(4).uniform_array((10, 6)))
        assert np.array_equal(d.d, d.d.T)
        assert np.diag(d.d).tolist() == [0.0] * 10
        assert (d.d >= 0).all()

    def test_needs_two_rows(self):
        with pytest.raises(ArgumentError):
            pairwise_euclidean(np.ones((1, 3)))

    @pytest.mark.parametrize("n", [9, 255, 257])
    def test_padded_rows_without_a_copy_match_reference_bitwise(self, n):
        # 64 features: the last rows' products run below OpenBLAS's
        # small-matrix bound at n = 9; 255 and 257 pad 1 and 7 rows.
        x = Rng(70 + n).uniform_array((n, 64), 0.0, 1.0)
        assert pairwise_euclidean(x).d.tobytes() == reference_pairwise_euclidean(x).tobytes()


class TestDistanceMatrix:
    def good(self, n=70):
        return pairwise_euclidean(Rng(9).uniform_array((n, 5))).d

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_or_negative_in_any_row_block(self, bad):
        d = self.good()
        d[66, 3] = d[3, 66] = bad
        with pytest.raises(ArgumentError, match="finite and non-negative"):
            DistanceMatrix(70, d)

    def test_rejects_asymmetry_in_any_row_block(self):
        d = self.good()
        d[66, 3] += 1e-9
        with pytest.raises(ArgumentError, match="symmetric"):
            DistanceMatrix(70, d)

    def test_non_finite_is_reported_before_asymmetry(self):
        d = self.good()
        d[1, 2] += 1e-9
        d[69, 68] = d[68, 69] = np.nan
        with pytest.raises(ArgumentError, match="finite and non-negative"):
            DistanceMatrix(70, d)

    def test_rejects_nonzero_diagonal(self):
        d = self.good()
        d[67, 67] = 1.0
        with pytest.raises(ArgumentError, match="diagonal"):
            DistanceMatrix(70, d)


class TestCalibrateRow:
    def test_equal_distances_give_uniform(self):
        _, p = calibrate_row(np.full(7, 3.5), 4.0)
        assert np.allclose(p, 1.0 / 7.0)
        assert p.sum() == pytest.approx(1.0)

    def test_achieved_perplexity_matches_target(self):
        rng = Rng(5)
        for _ in range(20):
            row = rng.uniform_array(30, 0.1, 4.0)
            target = 1.5 + rng.uniform() * 8.0
            _, p = calibrate_row(row, target)
            achieved = 2.0 ** float(-(p * np.log2(np.maximum(p, 1e-300))).sum())
            assert abs(achieved - target) <= 1e-5 * target

    def test_single_near_neighbor_low_perplexity(self):
        row = np.array([0.01, 5.0, 5.0, 5.0])
        _, p = calibrate_row(row, 1.0000001)
        assert p[0] > 0.999

    def test_all_zero_distances_degenerate(self):
        _, p = calibrate_row(np.zeros(4), 2.0)
        assert np.allclose(p, 0.25)

    def test_matches_reference_bitwise(self):
        rng = Rng(5)
        cases = [(np.full(7, 3.5), 4.0), (np.array([0.01, 5.0, 5.0, 5.0]), 1.0000001),
                 (np.zeros(4), 2.0)]
        cases += [(rng.uniform_array(30, 0.1, 4.0), 1.5 + rng.uniform() * 8.0) for _ in range(20)]
        d = pairwise_euclidean(rng.uniform_array((60, 5), -2, 2)).d
        cases += [(np.delete(d[i], i), 12.0) for i in range(60)]
        # exp underflows to 0 at the first sigma, so the entropy takes the gather path
        underflow = np.array([0.01, 0.02, 50.0, 60.0, 70.0])
        assert np.exp(-underflow[-1] ** 2 / 2.0) == 0.0
        cases.append((underflow, 1.5))
        for row, perplexity in cases:
            sigma, p = calibrate_row(row, perplexity)
            want_sigma, want_p = reference_calibrate_row(row, perplexity)
            assert sigma == want_sigma
            assert p.tobytes() == want_p.tobytes()


class TestTsne:
    def test_kl_decreases_from_random_init(self):
        # simplex vertices, default config
        x = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]) * 5.0
        emb = tsne(x, TsneConfig(seed=2))
        assert emb.kl_history[-1] < emb.kl_history[0]

    def test_deterministic(self):
        x = Rng(6).uniform_array((12, 5))
        cfg = TsneConfig(iters=80, exaggeration_iters=40, seed=9)
        a = tsne(x, cfg)
        b = tsne(x, cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.kl_history, b.kl_history)

    def test_q_matrix_sums_to_one(self):
        for n in (15, 150):
            w, z = full_w(Rng(7).uniform_array((n, 3)))
            assert abs((w / z).sum() - 1.0) < 1e-9

    def test_two_point_gradient_vanishes(self):
        p = _joint_p(np.array([[0.0, 0.0], [1.0, 1.0]]), 1.0)
        for seed in range(3):
            y = Rng(seed).uniform_array((2, 3), -2, 2)
            assert np.abs(kl_gradient(p, y)).max() < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = Rng(11)
        x = rng.uniform_array((6, 4), -2, 2)
        p = _joint_p(x, 1.5)
        y = rng.uniform_array((6, 3), -1, 1)
        grad = kl_gradient(p, y)
        eps = 1e-6
        flat = y.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = kl_divergence(p, y)
            flat[i] = orig - eps
            down = kl_divergence(p, y)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            a = grad.reshape(-1)[i]
            denom = max(abs(a), abs(fd))
            if denom > 1e-8:
                assert abs(a - fd) / denom < 1e-5
            else:
                assert abs(a - fd) < 1e-10

    @pytest.mark.parametrize("n", [40, 150])
    def test_blocked_descent_matches_the_two_q_descent(self, n):
        # n = 150 is three row blocks, the last one partial. Block-order
        # sums move the last bits, and the descent amplifies them to
        # about 2e-11 in y and 2e-13 in the KL over these 60 iterations.
        assert n <= _BLOCK or n % _BLOCK
        x = Rng(31).uniform_array((n, 7), -1, 1)
        cfg = TsneConfig(perplexity=8.0, iters=60, exaggeration_iters=25, seed=4)
        emb = tsne(x, cfg)
        y, kl_history = reference_tsne(x, cfg)
        assert np.abs(emb.y - y).max() <= 1e-10 * np.abs(y).max()
        assert np.abs(emb.kl_history - kl_history).max() <= 1e-10 * np.abs(kl_history).min()

    @pytest.mark.parametrize("n", [30, 150])
    def test_student_q_blocks_reassemble_to_reference_w(self, n):
        # Each block's Gram product y[s:e] @ y[s:].T may round differently
        # from the full y @ y.T; at n = 150 that moves W and Q by about
        # 1e-15 of their maxima (4.5 ulp), and Z by 2e-16.
        y = Rng(32).uniform_array((n, 3), -3, 3)
        w, z = full_w(y)
        want_q, want_w = reference_q(y)
        assert np.abs(w - want_w).max() <= 4e-15 * want_w.max()
        assert abs(z - want_w.sum()) <= 1e-15 * want_w.sum()
        assert np.abs(w / z - want_q).max() <= 4e-15 * want_q.max()

    def test_gradient_matches_finite_differences_across_blocks(self):
        rng = Rng(12)
        x = rng.uniform_array((70, 5), -2, 2)
        p = _joint_p(x, 10.0)
        y = rng.uniform_array((70, 2), -3, 3)
        grad = kl_gradient(p, y)
        eps = 1e-6
        flat = y.reshape(-1)
        fd = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = kl_divergence(p, y)
            flat[i] = orig - eps
            down = kl_divergence(p, y)
            flat[i] = orig
            fd[i] = (up - down) / (2 * eps)
        assert np.abs(grad.reshape(-1) - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_exaggeration_scales_p_in_the_gradient(self):
        rng = Rng(34)
        p = _joint_p(rng.uniform_array((90, 4), -2, 2), 10.0)
        y = rng.uniform_array((90, 3), -1, 1)
        got = kl_gradient(p, y, exaggeration=12.0)
        want = kl_gradient(p * 12.0, y)
        assert got.tobytes() == want.tobytes()

    def test_zero_p_pairs_add_nothing_to_the_kl(self):
        rng = Rng(35)
        p = _joint_p(rng.uniform_array((80, 4), -2, 2), 10.0)
        p[3, 70] = p[70, 3] = 0.0
        y = rng.uniform_array((80, 3), -1, 1)
        q, _ = reference_q(y)
        mask = p > 0.0
        want = float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-12))))
        assert kl_divergence(p, y) == pytest.approx(want, rel=1e-12)

    def test_passed_affinities_give_the_same_bits(self):
        rng = Rng(33)
        p = _joint_p(rng.uniform_array((25, 5), -2, 2), 5.0)
        y = rng.uniform_array((25, 3), -1, 1)
        aff = _student_q(y)
        assert kl_gradient(p, y, affinities=aff).tobytes() == kl_gradient(p, y).tobytes()
        assert kl_divergence(p, y, affinities=aff) == kl_divergence(p, y)

    def test_kl_decreases_across_seed_suite(self):
        x = Rng(3).uniform_array((14, 6), -1, 1)
        for seed in range(10):
            emb = tsne(x, TsneConfig(iters=400, exaggeration_iters=100, seed=seed))
            assert emb.kl_history[-1] < emb.kl_history[0]

    def test_perplexity_clamped_for_tiny_sets(self):
        x = Rng(8).uniform_array((5, 3))
        emb = tsne(x, TsneConfig(perplexity=30.0, iters=30, exaggeration_iters=10, seed=1))
        assert emb.y.shape == (5, 3)

    def test_needs_four_points(self):
        with pytest.raises(ArgumentError):
            tsne(np.zeros((3, 2)), TsneConfig())
        with pytest.raises(ArgumentError):
            tsne(pairwise_euclidean(np.eye(3)), TsneConfig())

    @pytest.mark.parametrize("n", [70, 150])  # two and three row blocks, neither a multiple of 8
    def test_distance_matrix_input_gives_the_same_bits(self, n):
        x = Rng(60 + n).uniform_array((n, 24), -1.0, 1.0)
        cfg = TsneConfig(perplexity=12.0, iters=40, exaggeration_iters=10, seed=5)
        want = tsne(x, cfg)
        got = tsne(pairwise_euclidean(x), cfg)
        assert got.y.tobytes() == want.y.tobytes()
        assert got.kl_history.tobytes() == want.kl_history.tobytes()

    def test_infinite_learning_rate_is_capped(self):
        x = Rng(8).uniform_array((12, 3))
        cfg = TsneConfig(iters=20, exaggeration_iters=5, seed=1)
        want = tsne(x, cfg)
        got = tsne(x, TsneConfig(iters=20, exaggeration_iters=5, seed=1, learning_rate=math.inf))
        assert got.y.tobytes() == want.y.tobytes()

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan")])
    def test_config_rejects_learning_rate_not_above_zero(self, rate):
        with pytest.raises(ArgumentError, match="learning_rate must be > 0"):
            TsneConfig(learning_rate=rate)

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_exaggeration_not_finite_and_positive(self, factor):
        with pytest.raises(ArgumentError, match="exaggeration must be finite and > 0"):
            TsneConfig(exaggeration=factor)

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, float("nan"), float("inf")])
    def test_config_rejects_early_momentum_outside_unit_interval(self, momentum):
        with pytest.raises(ArgumentError, match=r"momentum_early must be in \[0, 1\)"):
            TsneConfig(momentum_early=momentum)

    @pytest.mark.parametrize("momentum", [5.0, 1.0, -0.5, float("nan")])
    def test_config_rejects_late_momentum_outside_unit_interval(self, momentum):
        with pytest.raises(ArgumentError, match=r"momentum_late must be in \[0, 1\)"):
            TsneConfig(momentum_late=momentum)

    @pytest.mark.parametrize("iters", [0, -5])
    def test_config_rejects_iters_below_one(self, iters):
        with pytest.raises(ArgumentError, match="iters must be >= 1"):
            TsneConfig(iters=iters, exaggeration_iters=iters)

    def test_config_rejects_negative_exaggeration_iters(self):
        with pytest.raises(ArgumentError, match="exaggeration_iters must be >= 0"):
            TsneConfig(iters=10, exaggeration_iters=-1)

    @pytest.mark.parametrize("perplexity", [0.5, float("nan")])
    def test_rejects_perplexity_below_one_or_nan(self, perplexity):
        with pytest.raises(ArgumentError, match="perplexity must be >= 1"):
            TsneConfig(perplexity=perplexity)
        with pytest.raises(ArgumentError, match="perplexity must be >= 1"):
            calibrate_row(np.arange(1.0, 5.0), perplexity)


class TestHclusterAverage:
    def test_unique_minimum_merges_first(self):
        d = DistanceMatrix(3, np.array([[0, 1, 10], [1, 0, 10], [10, 10, 0.0]]))
        dg = hcluster_average(d)
        assert dg.merges[0][:3] == (0, 1, 1.0)

    def test_matches_brute_force_on_random_matrices(self):
        rng = Rng(17)
        for _ in range(100):
            n = 3 + rng.randrange(10)  # up to 12 points
            dm = random_distance_matrix(rng, n)
            got = hcluster_average(dm).merges
            want = brute_force_upgma(dm.d)
            assert len(got) == len(want)
            for (ga, gb, gh, gs), (wa, wb, wh, ws) in zip(got, want):
                assert (ga, gb, gs) == (wa, wb, ws)
                assert abs(gh - wh) <= 1e-9

    @pytest.mark.parametrize("seed, n", [(41, 40), (42, 51), (43, 60)])
    def test_matches_brute_force_on_larger_matrices(self, seed, n):
        dm = random_distance_matrix(Rng(seed), n)
        got = hcluster_average(dm).merges
        want = brute_force_upgma(dm.d)
        assert len(got) == len(want) == n - 1
        for (ga, gb, gh, gs), (wa, wb, wh, ws) in zip(got, want):
            assert (ga, gb, gs) == (wa, wb, ws)
            assert abs(gh - wh) <= 1e-9

    def test_matches_brute_force_when_every_distance_ties(self):
        n = 45
        d = np.ones((n, n)) - np.eye(n)
        got = hcluster_average(DistanceMatrix(n, d)).merges
        want = brute_force_upgma(d)
        assert [m[:2] + m[3:] for m in got] == [m[:2] + m[3:] for m in want]
        assert all(abs(g[2] - w[2]) <= 1e-9 for g, w in zip(got, want))

    def test_heights_non_decreasing(self):
        rng = Rng(19)
        for _ in range(20):
            dm = random_distance_matrix(rng, 4 + rng.randrange(9))
            heights = [m[2] for m in hcluster_average(dm).merges]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_permutation_invariant_height_multiset(self):
        rng = Rng(23)
        x = rng.uniform_array((9, 4))
        perm = list(range(9))
        rng.shuffle(perm)
        h1 = sorted(m[2] for m in hcluster_average(pairwise_euclidean(x)).merges)
        h2 = sorted(m[2] for m in hcluster_average(pairwise_euclidean(x[perm])).merges)
        assert np.allclose(h1, h2, atol=1e-9)

    def test_tie_breaks_toward_smallest_pair(self):
        d = DistanceMatrix(4, np.ones((4, 4)) - np.eye(4))
        dg = hcluster_average(d)
        assert dg.merges[0][:2] == (0, 1)

    def test_leaf_order_is_dfs_left_first(self):
        d = DistanceMatrix(3, np.array([[0, 1, 10], [1, 0, 10], [10, 10, 0.0]]))
        assert hcluster_average(d).leaf_order == (2, 0, 1)

    # Digests of the (2n-1)^2-matrix implementation this one replaced; the
    # brute-force oracles above allow 1e-9 on the heights, these allow none.
    @pytest.mark.parametrize("make, want", [
        (euclidean_150, "0588f2052ab441ec9a39160fddc9f85791079b7fd18606309a5481724b56ac84"),
        (integer_ties_60, "183cb5168a2568696c298a1789e8fa77d0ad439ab1736e50fae0be119604a36f"),
        (offset_lower_and_negative_zero_40,
         "6fe51e58899c75ea0a38657242e7688f69624137e0b5e083d4456b809bd2a181"),
    ])
    def test_merge_log_bits_are_pinned(self, make, want):
        assert merge_log_digest(hcluster_average(make())) == want


class TestClusteredMap:
    def test_identity_permutation(self):
        d = pairwise_euclidean(Rng(2).uniform_array((5, 3)))
        dg = Dendrogram(hcluster_average(d).merges, tuple(range(5)))
        reordered, ribbon = clustered_map(d, dg, [0, 1, 0, 1, 0])
        assert np.array_equal(reordered, d.d)
        assert ribbon.tolist() == [0, 1, 0, 1, 0]

    def test_reordered_stays_symmetric(self):
        d = pairwise_euclidean(Rng(3).uniform_array((8, 4)))
        dg = hcluster_average(d)
        reordered, _ = clustered_map(d, dg, list(range(8)))
        assert np.array_equal(reordered, reordered.T)
        assert np.diag(reordered).tolist() == [0.0] * 8

    def test_separable_clusters_make_contiguous_ribbon(self):
        rng = Rng(4)
        a = rng.uniform_array((6, 3), 0.0, 0.5)
        b = rng.uniform_array((6, 3), 50.0, 50.5)
        interleaved = np.vstack([a, b])[[0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]]
        labels = [0, 1] * 6
        d = pairwise_euclidean(interleaved)
        _, ribbon = clustered_map(d, hcluster_average(d), labels)
        runs = 1 + int(np.sum(ribbon[1:] != ribbon[:-1]))
        assert runs == 2

    def test_label_length_checked(self):
        d = pairwise_euclidean(Rng(5).uniform_array((4, 2)))
        with pytest.raises(ArgumentError):
            clustered_map(d, hcluster_average(d), [0, 1])
