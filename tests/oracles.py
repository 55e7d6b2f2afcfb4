"""Brute-force oracles for the test suite.

Most of this is written with explicit Python loops and scalar math,
independent of the package's vectorized code paths, so tests can compare
two genuinely different routes to the same quantity. The ``*_chain``
functions are the exception: they are the per-op autodiff chains that the
package's hand-written backwards replaced, kept as references, from the loss, the
gate and the ensemble to the extractor (``mlp_chain``) and the regularizers
(``ols_chain``, ``l1_chain``, ``orth_chain``). They are built from the
generic reverse-mode ops (``add``, ``mul``, ``summation``, ``amax``,
``spectral_norm_sym``, ...), which live here since no package code needs
them, with ``is_tensor`` and ``value_of``, which they read: ``gdu.autodiff``
keeps only the tape. On arrays the chains run the
numpy operations of the fused forwards in the same order, so the two must
agree bit for bit. ``gaussian_gram_chain`` is the one chain that
agrees only up to rounding: the package builds the Gram from another
arithmetic route (one matmul of augmented rows). ``kmeans_loop`` is the
plain Lloyd loop that ``gdu.heuristics.kmeans`` replaced, kept as its
bit-exact reference, over ``kmeans_pp_init``, the one-shot k-means++
seeding that the package's growing seeding replaced. It writes out the
distances as ``kmeans`` lays them out, ``(||x||^2 + ||c||^2) - 2 C X^T``
in (k, n) over a contiguous copy of X^T, not as
``squared_distances(X, C)``: the BLAS rounds the two layouts of the
product differently on some shapes, and the contiguous (k, n) one is the
fast one. ``squared_distances`` is the one (n, m) distance matrix that
the package's distance loops lay out in other ways, and
``row_block_pairs`` is the median heuristic's pair loop over it, the
exact reference of ``gdu.kernel._upper_squared_distances``.
``train_loop`` is the training loop that made its state fresh on every
step, kept as the bit-exact reference of
``gdu.training.train``. ``three_node_gradients`` builds a step's objective
on the tape, with a separate kernel node for the gate's inner products,
the basis norms and the basis Gram (``block_means_node`` and
``diagonal_block_means_node``, the package's tensor paths before one
``gdu.kernel._kernel_statistics`` call gave a step all three), the inner
products basis-major, as that call lays them out. Around them it chains
either the package's own array nodes, each wrapped as one tape node, or
the op chains. With the package's nodes it is the exact reference of a
step that does not read the basis Gram, and one within rounding of a step
that does; with the op chains the whole step agrees within rounding, as
the chains' derivatives round otherwise.
``bayes_accuracy_loop`` scores the Bayes classifier row by row in
scalar math.
"""

import math

import numpy as np

from gdu.autodiff import Tensor
from gdu.heuristics import _MAX_LLOYD_ITER, ClusteringResult, _distances_to
from gdu.kernel import _augmented_forms, _check_feature_dims, _gaussian_gram
from gdu.layer import UNIFORM, _ensemble, _gate_from_inners
from gdu.regularization import _l1, _ols, _orth
from gdu.training import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    NonFiniteGradientError,
    TraceRow,
    TrainingDivergedError,
    TrainTrace,
    _build_objective,
    _cross_entropy,
    _epoch_metrics,
    _extract,
    _lay_out,
    _trained_part,
    accuracy,
    fe_forward,
    trainable_arrays,
)


def kernel_value(x, y, sigma):
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x, y))
    return math.exp(-d2 / (2.0 * sigma**2))


def kme_inner_brute(points_a, points_b, sigma):
    total = 0.0
    for a in points_a:
        for b in points_b:
            total += kernel_value(a, b, sigma)
    return total / (len(points_a) * len(points_b))


def mmd_sq_brute(points_a, points_b, sigma):
    return (
        kme_inner_brute(points_a, points_a, sigma)
        - 2.0 * kme_inner_brute(points_a, points_b, sigma)
        + kme_inner_brute(points_b, points_b, sigma)
    )


def omega_ols_brute(X, beta, bases, sigma):
    """Literal RKHS-norm expansion of the reconstruction error."""
    b = len(X)
    total = 0.0
    for i in range(b):
        xi = [X[i]]
        term = kme_inner_brute(xi, xi, sigma)
        for j, basis in enumerate(bases):
            term -= 2.0 * beta[i][j] * kme_inner_brute(xi, basis, sigma)
        for j, basis_j in enumerate(bases):
            for l, basis_l in enumerate(bases):
                term += (
                    beta[i][j]
                    * beta[i][l]
                    * kme_inner_brute(basis_j, basis_l, sigma)
                )
        total += term
    return total / b


def mlp_forward_brute(x, weights, biases, nonlinearity):
    """Loop-based MLP forward pass; nonlinearity between layers only."""
    out = [float(v) for v in x]
    for layer_idx, (w, b) in enumerate(zip(weights, biases)):
        nxt = []
        for col in range(len(b)):
            acc = float(b[col])
            for row in range(len(out)):
                acc += out[row] * float(w[row][col])
            nxt.append(acc)
        if layer_idx < len(weights) - 1:
            if nonlinearity == "relu":
                nxt = [max(v, 0.0) for v in nxt]
            elif nonlinearity == "tanh":
                nxt = [math.tanh(v) for v in nxt]
        out = nxt
    return np.array(out)


def fd_gradient(fn, arrays, step=1e-5):
    """Central finite differences of ``fn()`` w.r.t. each array in ``arrays``.

    ``fn`` must read the arrays in place (they are perturbed and restored).
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = fn()
            arr[idx] = orig - step
            f_minus = fn()
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * step)
            it.iternext()
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Worst relative disagreement over coordinates with non-tiny gradients."""
    worst = 0.0
    for name in analytic:
        a = np.asarray(analytic[name]).ravel()
        n = np.asarray(numeric[name]).ravel()
        for av, nv in zip(a, n):
            scale = max(abs(av), abs(nv))
            if scale <= floor:
                continue
            worst = max(worst, abs(av - nv) / scale)
    return worst


# Basis Gram matrices routinely have near-tied leading eigenvalues, where
# power iteration converges slowly; the cap and threshold are sized so the
# estimate agrees with a dense eigensolver to well below 1e-8 on M <= 10.
_SRIP_MAX_ITER = 20_000
_SRIP_REL_TOL = 1e-13


def srip_power_iteration(A):
    """Spectral norm of a symmetric matrix by power iteration.

    Iterates simultaneously from deterministic starts (normalized all-ones
    plus every coordinate axis, since the all-ones vector can be orthogonal
    to the dominant eigenvector) and returns the largest estimate
    ``||A u||``, which is robust to sign-symmetric spectra where the
    iterate itself oscillates. Stops when every start's estimate has
    stabilized to relative changes below 1e-13, or after 20,000 iterations.
    """
    A = np.asarray(A, dtype=np.float64)
    m = A.shape[0]
    U = np.concatenate([np.full((m, 1), 1.0 / np.sqrt(m)), np.eye(m)], axis=1)
    estimates = np.linalg.norm(A @ U, axis=0)
    for _ in range(_SRIP_MAX_ITER):
        V = A @ U
        norms = np.linalg.norm(V, axis=0)
        alive = norms > 0.0
        if not alive.any():
            break
        U = np.where(alive, V / np.where(alive, norms, 1.0), U)
        new_estimates = np.linalg.norm(A @ U, axis=0)
        done = np.abs(new_estimates - estimates) <= _SRIP_REL_TOL * np.maximum(
            new_estimates, 1e-300
        )
        estimates = new_estimates
        if done.all():
            break
    return float(estimates.max())


# -- the generic reverse-mode ops -------------------------------------------------
#
# The per-op library that the package's fused nodes replaced. Each function
# takes arrays, scalars or ``gdu.autodiff.Tensor`` operands; with no tensor
# among them it evaluates eagerly and returns numpy values, otherwise it
# records one tape node whose backward is the op's own derivative. Binary
# ops broadcast, and ``_unbroadcast`` sums a gradient back to its operand's
# shape.


def is_tensor(x):
    return isinstance(x, Tensor)


def value_of(x):
    """The numpy value of ``x``: a tensor's data, or x as a float64 array."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` to ``shape`` by summing broadcast axes."""
    g = np.asarray(g)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, da, db):
    a_t, b_t = is_tensor(a), is_tensor(b)
    av, bv = value_of(a), value_of(b)
    if not a_t and not b_t:
        return fwd(av, bv)

    def bw(g):
        if a_t:
            a._accumulate(_unbroadcast(da(g, av, bv), av.shape))
        if b_t:
            b._accumulate(_unbroadcast(db(g, av, bv), bv.shape))

    return Tensor(fwd(av, bv), tuple(t for t in (a, b) if is_tensor(t)), bw)


def _unary(a, fwd, da):
    if not is_tensor(a):
        return fwd(value_of(a))
    out_data = fwd(a.data)
    return Tensor(out_data, (a,), lambda g: a._accumulate(da(g, a.data, out_data)))


def add(a, b):
    return _binary(a, b, lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g)


def sub(a, b):
    return _binary(a, b, lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g)


def mul(a, b):
    return _binary(a, b, lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a)


def div(a, b):
    return _binary(
        a, b, lambda a, b: a / b, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)
    )


def neg(a):
    return _unary(a, lambda a: -a, lambda g, a, out: -g)


def matmul(a, b):
    """Matrix product of 1-D or 2-D operands."""
    a_t, b_t = is_tensor(a), is_tensor(b)
    av, bv = value_of(a), value_of(b)
    if not a_t and not b_t:
        return av @ bv

    # A 1-D operand contributes an outer product; for a dot product ``g`` is
    # 0-d and the outer product reduces to ``g * v``.
    def bw(g):
        if a_t:
            a._accumulate(g @ bv.T if bv.ndim == 2 else np.multiply.outer(g, bv))
        if b_t:
            b._accumulate(av.T @ g if av.ndim == 2 else np.multiply.outer(av, g))

    return Tensor(av @ bv, tuple(t for t in (a, b) if is_tensor(t)), bw)


def exp(x):
    return _unary(x, np.exp, lambda g, a, out: g * out)


def log(x):
    return _unary(x, np.log, lambda g, a, out: g / a)


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, a, out: g * 0.5 / out)


def tanh(x):
    return _unary(x, np.tanh, lambda g, a, out: g * (1.0 - out * out))


def relu(x):
    return _unary(x, lambda a: np.maximum(a, 0.0), lambda g, a, out: g * (a > 0.0))


def absolute(x):
    return _unary(x, np.abs, lambda g, a, out: g * np.sign(a))


def maximum(a, b):
    """Elementwise maximum; the gradient splits evenly on exact ties."""

    def da(g, av, bv):
        return g * np.where(av > bv, 1.0, np.where(av == bv, 0.5, 0.0))

    def db(g, av, bv):
        return g * np.where(bv > av, 1.0, np.where(av == bv, 0.5, 0.0))

    return _binary(a, b, np.maximum, da, db)


def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, in_shape)


def summation(x, axis=None, keepdims=False):
    out = np.sum(value_of(x), axis=axis, keepdims=keepdims)
    if not is_tensor(x):
        return out
    return Tensor(
        out, (x,), lambda g: x._accumulate(_expand_reduced(g, x.data.shape, axis, keepdims))
    )


def mean(x, axis=None, keepdims=False):
    shape = value_of(x).shape
    count = math.prod(shape) if axis is None else shape[axis]
    return div(summation(x, axis=axis, keepdims=keepdims), float(count))


def amax(x, axis=None, keepdims=False):
    """Maximum reduction; the gradient splits evenly across tied maxima."""
    out_data = np.max(value_of(x), axis=axis, keepdims=keepdims)
    if not is_tensor(x):
        return out_data

    def bw(g):
        full_max = _expand_reduced(out_data, x.data.shape, axis, keepdims)
        mask = (x.data == full_max).astype(np.float64)
        counts = _expand_reduced(
            np.sum(mask, axis=axis, keepdims=keepdims), x.data.shape, axis, keepdims
        )
        x._accumulate(_expand_reduced(g, x.data.shape, axis, keepdims) * mask / counts)

    return Tensor(out_data, (x,), bw)


def reshape(x, shape):
    if not is_tensor(x):
        return np.reshape(value_of(x), shape)
    return Tensor(x.data.reshape(shape), (x,), lambda g: x._accumulate(g.reshape(x.data.shape)))


def detach(x):
    return Tensor(x.data) if is_tensor(x) else x


def spectral_norm_sym(x):
    """Largest absolute eigenvalue of a symmetric matrix, from ``eigh``.

    The gradient is ``sign(lambda*) u u^T`` for the dominant eigenpair,
    exact whenever the dominant eigenvalue is simple.
    """
    eigvals, eigvecs = np.linalg.eigh(value_of(x))
    i = int(np.argmax(np.abs(eigvals)))
    val = abs(float(eigvals[i]))
    if not is_tensor(x):
        return val
    u = eigvecs[:, i]
    sign = 1.0 if eigvals[i] >= 0 else -1.0
    return Tensor(val, (x,), lambda g: x._accumulate(g * sign * np.outer(u, u)))


def squared_distances(X, Y):
    """Pairwise squared Euclidean distances between rows of X and rows of Y.

    Computed as ``||x||^2 + ||y||^2 - 2 x.y`` and clamped at zero, because
    floating-point cancellation can leave tiny negatives where rows nearly
    coincide. Leading axes batch: (..., n, e) and (..., m, e) give
    (..., n, m). The reference of ``gdu.heuristics._distances_to`` and
    ``gdu.kernel._upper_squared_distances``, which run its operations in
    other layouts.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    xx = np.sum(X * X, axis=-1)[..., :, None]
    yy = np.sum(Y * Y, axis=-1)[..., None, :]
    return np.maximum(xx + yy - 2.0 * (X @ np.swapaxes(Y, -1, -2)), 0.0)


def row_block_pairs(X, block_rows):
    """The squared distances of the pairs ``i < j`` of X's rows, row by row.

    Row i of the block ``lo:hi`` it falls in takes its pairs from
    ``squared_distances(X[lo:hi], X[lo:])``: the row-block products of
    ``gdu.kernel._upper_squared_distances``, in row-major order.
    """
    pairs = []
    for lo in range(0, len(X), block_rows):
        block = squared_distances(X[lo : lo + block_rows], X[lo:])
        for r, row in enumerate(block):
            pairs.extend(row[r + 1 :])
    return np.array(pairs)


# -- op chains replaced by hand-written backwards --------------------------------


def gaussian_gram_chain(X, Y, sigma):
    """Gaussian Gram from explicit squared distances, one full-size array per op."""
    return np.exp(squared_distances(X, Y) / (-2.0 * sigma**2))


def cross_entropy_chain(logits, labels):
    """Mean cross-entropy of (b, C) logits rows, one op per step.

    The picked entry of each row is the row's sum against the one-hot
    labels: its only nonzero term, so the same value.
    """
    labels = np.asarray(labels, dtype=np.int64)
    onehot = np.eye(value_of(logits).shape[1])[labels]
    z = sub(logits, amax(logits, axis=1, keepdims=True))
    lse = log(summation(exp(z), axis=1))
    return mean(sub(lse, summation(mul(z, onehot), axis=1)))


def _kernel_softmax_chain(scores, kappa):
    """Row-wise softmax of ``kappa * scores`` with max-subtraction."""
    z = mul(scores, kappa)
    z = sub(z, detach(amax(z, axis=1, keepdims=True)))
    e = exp(z)
    return div(e, summation(e, axis=1, keepdims=True))


def _similarity_chain(a, norms, mode):
    """CS or MMD similarity scores between unit-norm feature maps and each basis."""
    if mode == "CS":
        return div(a, sqrt(reshape(norms, (1, -1))))
    return neg(add(sub(1.0, mul(2.0, a)), reshape(norms, (1, -1))))


def gate_chain(a, norms, mode, kappa):
    """Gating rows from embedding inner products (see ``_gate_from_inners``)."""
    if mode == "PROJECTION":
        return div(a, reshape(norms, (1, -1)))
    return _kernel_softmax_chain(_similarity_chain(a, norms, mode), kappa)


def ensemble_chain(X, weights, bias, beta):
    """Gate-weighted sum of the machines' outputs (see ``forward_batch``)."""
    e, m, c = value_of(weights).shape
    b = value_of(X).shape[0]
    out = reshape(add(matmul(X, reshape(weights, (e, -1))), reshape(bias, (-1,))), (b, m, c))
    return summation(mul(reshape(beta, (b, m, 1)), out), axis=1)


def mlp_chain(X, weights, biases, nonlinearity):
    """Extractor forward, three nodes per hidden layer (see ``fe_forward``)."""
    out = X
    for i, (w, b) in enumerate(zip(weights, biases)):
        out = add(matmul(out, w), b)
        if i < len(weights) - 1:
            out = relu(out) if nonlinearity == "relu" else tanh(out)
    return out


def ols_chain(a, k_bases, beta):
    """Reconstruction error from embedding inner products (see ``omega_ols``)."""
    cross = mean(summation(mul(beta, a), axis=1))
    quad = mean(summation(mul(matmul(beta, k_bases), beta), axis=1))
    raw = add(sub(1.0, mul(2.0, cross)), quad)
    return maximum(raw, 0.0) if value_of(raw) < 0.0 else raw


def l1_chain(beta):
    """Batch-mean L1 norm of the gating coefficients (see ``omega_l1``)."""
    return mean(summation(absolute(beta), axis=1))


def orth_chain(K):
    """SRIP on a basis Gram matrix (see ``omega_orth``)."""
    return spectral_norm_sym(sub(K, np.eye(value_of(K).shape[0])))


# -- loops replaced by vectorized code -----------------------------------------


def kmeans_pp_init(XT, xx, k, rng):
    """k-means++ seeding of k centroids from X^T and the rows' squared norms.

    The one-shot seeding that ``gdu.heuristics`` replaced with one that
    grows on demand, kept as its bit-exact reference: the first k centroids
    of the growing seeding of a seed are this seeding's, from
    ``np.random.default_rng(seed)``. ``XT`` is the contiguous (e, n)
    transpose of X. Each row's D^2 to a new centroid is one
    ``_distances_to`` pass on (1, n) buffers.
    """
    n = XT.shape[1]
    centroids = np.empty((k, len(XT)))
    centroids[0] = XT[:, rng.integers(n)]
    twice_g, d2 = np.empty((1, n)), np.empty((1, n))
    closest = _distances_to(XT, xx, centroids[:1], twice_g, np.empty((1, n)))[0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[i] = XT[:, rng.integers(n)]
            continue
        centroids[i] = XT[:, rng.choice(n, p=closest / total)]
        _distances_to(XT, xx, centroids[i : i + 1], twice_g, d2)
        np.minimum(closest, d2[0], out=closest)
    return centroids


def kmeans_loop(X, k, seed, check_monotone=False, trace=None):
    """Lloyd's loop with k-means++ seeding, one mask and one mean per cluster.

    The bit-exact reference for ``gdu.heuristics.kmeans``: for the same
    arguments both return the same assignments, centroids and inertia bit
    for bit, after the same number of iterations. A ``trace`` dict receives
    ``iterations`` (loop passes, the last one included), ``converged``
    (whether the assignments reached a fixpoint) and ``reseeds`` (empty
    clusters re-seeded from the farthest point).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n rows, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    xx = np.sum(X * X, axis=-1)
    XT = np.ascontiguousarray(X.T)

    def distances(C):
        # squared_distances(X, C), computed in kmeans's (k, n) layout: see the module text.
        return np.maximum((xx + np.sum(C * C, axis=-1)[:, None]) - 2.0 * (C @ XT), 0.0).T

    centroids = kmeans_pp_init(XT, xx, k, rng)
    assignments = np.full(n, -1)
    last_inertia = np.inf
    iterations, converged, reseeds = 0, False, 0
    for _ in range(_MAX_LLOYD_ITER):
        iterations += 1
        d2 = distances(centroids)
        new_assignments = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), new_assignments].sum())
        if check_monotone:
            assert inertia <= last_inertia + 1e-9, "inertia increased"
        last_inertia = inertia
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        for j in range(k):
            members = X[assignments == j]
            if len(members) == 0:
                farthest = int(np.argmax(d2[np.arange(n), assignments]))
                centroids[j] = X[farthest]
                assignments[farthest] = j
                reseeds += 1
            else:
                centroids[j] = members.mean(axis=0)
    d2 = distances(centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    if trace is not None:
        trace.update(iterations=iterations, converged=converged, reseeds=reseeds)
    return ClusteringResult(assignments, centroids, inertia)


def train_loop(data, config, model):
    """The training loop with fresh state on every step.

    Each step lays the parameters out afresh (``_lay_out``: a new
    parameter vector and a fresh ``_gradient_layout``), concatenates the
    blocks' gradients into a new vector and runs Adam's update out of place.
    Everything else is ``gdu.training.train``'s: the same batches, epoch
    metrics, early stopping and snapshot. For the same arguments both
    return the same parameters and trace bit for bit.
    """
    part, train_x, val_x = _trained_part(
        model, config.mode, np.asarray(data.train_x, dtype=np.float64), data.val_x
    )
    params, *_ = _lay_out(part)
    m, v, t = np.zeros_like(params), np.zeros_like(params), 0
    rng = np.random.default_rng(config.seed)
    n = len(train_x)
    train_y = np.asarray(data.train_y, dtype=np.int64)
    trace = TrainTrace()
    best_val, best_snapshot, stale_epochs = -math.inf, None, 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            params, _, views = _lay_out(part)
            obj = _build_objective(part, train_x[idx], train_y[idx], config.reg, views)
            if not np.isfinite(float(obj.data)):
                raise TrainingDivergedError(epoch)
            obj.backward()
            blocks = list(views.values())
            grad = np.concatenate([np.ravel(g) for g in blocks])
            if not np.all(np.isfinite(grad)):
                name = next(k for k, g in zip(views, blocks) if not np.all(np.isfinite(g)))
                raise NonFiniteGradientError(
                    f"non-finite gradient in block {name!r} at epoch {epoch}"
                )
            t += 1
            m = _ADAM_BETA1 * m + (1 - _ADAM_BETA1) * grad
            v = _ADAM_BETA2 * v + (1 - _ADAM_BETA2) * grad * grad
            m_hat = m / (1 - _ADAM_BETA1**t)
            v_hat = v / (1 - _ADAM_BETA2**t)
            params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

        feats_train = np.asarray(fe_forward(train_x, part.fe))
        ce, ols, orth, l1 = _epoch_metrics(part, feats_train, train_y)
        if not np.isfinite(ce):
            raise TrainingDivergedError(epoch)
        val_acc = accuracy(part, val_x, data.val_y)
        trace.rows.append(TraceRow(epoch, ce, val_acc, ols, orth, l1))
        if val_acc > best_val:
            best_val, best_snapshot, stale_epochs = val_acc, params.copy(), 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break
    if best_snapshot is not None:
        params[...] = best_snapshot
    return model, trace


def _with_ones(A, cfg):
    """``[A | 1]``: the first e + 1 columns of A's left augmented form."""
    return _augmented_forms(cfg.sigma, (A, "l"))[0][..., :-1]


def block_means_node(X, Y, cfg, n_x, n_y):
    """The tape node of ``gdu.kernel.gram_block_means`` before it took arrays only.

    Block means of ``gram(X, Y)`` over runs of ``n_x`` rows of X and
    ``n_y`` rows of Y, as that function reduces them. A tensor on either
    side, or one tensor on both, gets the closed-form backward: the small
    gradient ``g``, scaled by ``1 / (n_x n_y sigma^2)``, expanded over the
    blocks to ``W = G * E(g)``, then ``W [Y | 1]`` for X and ``W^T [X | 1]``
    for Y. Its orientation is the Gram's: ``block_means_node(V, X, cfg, N,
    1).T`` is the basis-major (M*N, b) route of
    ``gdu.kernel._kernel_statistics``, its inner products bit for bit;
    ``block_means_node(X, V, cfg, 1, N)`` is the batch-major (b, M*N)
    layout that node replaced, which rounds its entries and sums its runs
    of N otherwise.
    """
    Xs, Ys = value_of(X), value_of(Y)
    _check_feature_dims("X", Xs.shape[-1], "Y", Ys.shape[-1])
    Xv, Yv = Xs.reshape(-1, Xs.shape[-1]), Ys.reshape(-1, Ys.shape[-1])
    G = _gaussian_gram(*_augmented_forms(cfg.sigma, (Xv, "l"), (Yv, "r")))
    rows_x, rows_y = G.shape
    p, q = rows_x // n_x, rows_y // n_y
    blocks = G.reshape(p, n_x, q, n_y)
    x_t, y_t = is_tensor(X), is_tensor(Y)
    if n_x == n_y == 1:
        K = G.copy() if x_t or y_t else G
    else:
        K = blocks.sum(axis=3) / n_y if n_y > 1 else blocks[..., 0]
        K = K.sum(axis=1) / n_x if n_x > 1 else K[:, 0]
    if not x_t and not y_t:
        return K
    scale = 1.0 / (n_x * n_y * cfg.sigma**2)

    def bw(g):
        W = (blocks * (g * scale)[:, None, :, None]).reshape(rows_x, rows_y)
        if x_t:
            WY = W @ _with_ones(Yv, cfg)
            X._accumulate((WY[:, :-1] - WY[:, -1:] * Xv).reshape(Xs.shape))
        if y_t:
            WX = W.T @ _with_ones(Xv, cfg)
            Y._accumulate((WX[:, :-1] - WX[:, -1:] * Yv).reshape(Ys.shape))

    return Tensor(K, tuple(t for t in (X, Y) if is_tensor(t)), bw)


def diagonal_block_means_node(X, cfg, n):
    """The tape node that gave the basis norms before ``gdu.kernel._kernel_statistics``.

    Means of the diagonal (n, n) blocks of ``gram(X, X)``, from one batched
    matmul over those blocks only. A tensor's backward is ``S_p [X_p | 1]``
    per block, with ``S_p = 2 g_p G_p / (n^2 sigma^2)``.
    """
    Xs = value_of(X)
    rows, e = math.prod(Xs.shape[:-1]), Xs.shape[-1]
    Xb = Xs.reshape(rows // n, n, e)
    G = _gaussian_gram(*_augmented_forms(cfg.sigma, (Xb, "l"), (Xb, "r")))
    K = G.reshape(rows // n, n * n).sum(axis=1) / float(n * n)
    if not is_tensor(X):
        return K
    scale = 2.0 / (n * n * cfg.sigma**2)

    def bw(g):
        S = G * (g * scale)[:, None, None]
        SX = S @ _with_ones(Xb, cfg)
        X._accumulate((SX[..., :-1] - SX[..., -1:] * Xb).reshape(Xs.shape))

    return Tensor(K, (X,), bw)


def _transposed(x):
    """x^T as one tape node, whose backward hands the gradient back transposed."""
    return Tensor(x.data.T, (x,), lambda g: x._accumulate(g.T))


def _node(parents, value, back):
    """A package array node ``(value, back)`` as one tape node over ``parents``.

    ``back(g)`` gives one gradient per parent, or, for a lone parent, its
    gradient itself; a parent that is no tensor, or whose gradient is None,
    gets none.
    """
    def bw(g):
        grads = back(g)
        for parent, grad in zip(parents, (grads,) if len(parents) == 1 else grads):
            if is_tensor(parent) and grad is not None:
                parent._accumulate(grad)

    return Tensor(value, tuple(p for p in parents if is_tensor(p)), bw)


def _package_ensemble(feats, weights, bias, beta, layer):
    y, back = _ensemble(value_of(feats), layer, None if beta is None else beta.data)
    return _node((feats, weights, bias, beta), y, lambda g: back(g, is_tensor(feats)))


def _chain_ensemble(feats, weights, bias, beta, layer):
    if beta is None:
        beta = np.full((value_of(feats).shape[0], layer.num_bases), 1.0 / layer.num_bases)
    return ensemble_chain(feats, weights, bias, beta)


# A step's nodes: the package's array nodes, each one tape node, and the op
# chains they replaced. Each takes tensors, and the layer or extractor for
# its settings; the package's read the blocks' values from those, which the
# leaves copy.
PACKAGE_NODES = dict(
    extract=lambda X, params, fe: _node(params, *_extract(X, fe)),
    gate=lambda a, norms, layer: _node(
        (a, norms), *_gate_from_inners(a.data, norms.data, layer.mode, layer.kappa)),
    ensemble=_package_ensemble,
    loss=lambda logits, y: _node((logits,), *_cross_entropy(logits.data, y)),
    ols=lambda a, k, beta: _node((a, k, beta), *_ols(a.data, k.data, beta.data)),
    orth=lambda k: _node((k,), *_orth(k.data)),
    l1=lambda beta: _node((beta,), *_l1(beta.data)),
)
OP_CHAINS = dict(
    extract=lambda X, params, fe: mlp_chain(X, params[::2], params[1::2], fe.nonlinearity),
    gate=lambda a, norms, layer: gate_chain(a, norms, layer.mode, layer.kappa),
    ensemble=_chain_ensemble,
    loss=cross_entropy_chain,
    ols=ols_chain,
    orth=orth_chain,
    l1=l1_chain,
)


def three_node_gradients(batch, model, reg, train_mode, nodes=PACKAGE_NODES):
    """``gdu.training.gradients`` on the tape, one kernel node per statistic.

    The gate reads the basis-major ``block_means_node(V, feats, N, 1)``,
    transposed to (b, M), and ``diagonal_block_means_node(V, N)``; a step
    whose regularizers read the basis Gram builds it as
    ``block_means_node(V, V, N, N)``, a third node with its own Gram. The
    tape chains them with the extractor, the gate, the ensemble, the loss
    and each term, and sums ``loss + w t`` term by term. By default those
    are the package's own array nodes (``PACKAGE_NODES``), each one tape
    node, so the tape, not ``gdu.training._objective``, routes and adds up
    every gradient; ``nodes=OP_CHAINS`` takes the op chains instead
    (``mlp_chain``, ``gate_chain``, ``ensemble_chain``,
    ``cross_entropy_chain``, ``ols_chain``, ``orth_chain``, ``l1_chain``).
    Returns the leaves' gradients by name, in ``trainable_arrays`` order.
    """
    X, y = batch
    part, X = _trained_part(model, train_mode, np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    leaves = {name: Tensor(arr.copy()) for name, arr in trainable_arrays(part, "E2E").items()}
    feats, layer = X, part.layer
    if part.fe is not None:
        params = [leaf for name, leaf in leaves.items() if name.startswith("fe.")]
        feats = nodes["extract"](X, params, part.fe)
    a = beta = k_bases = None
    if layer.mode != UNIFORM:
        V, n, cfg = leaves["layer.bases"], layer.basis_size, layer.kernel
        a = _transposed(block_means_node(V, feats, cfg, n, 1))
        beta = nodes["gate"](a, diagonal_block_means_node(V, cfg, n), layer)
        if reg.lambda_ols or reg.lambda_orth:
            k_bases = block_means_node(V, V, cfg, n, n)
    logits = nodes["ensemble"](feats, leaves["layer.weights"], leaves["layer.bias"], beta, layer)
    obj = nodes["loss"](logits, y)
    for weight, term in ((reg.lambda_ols, lambda: nodes["ols"](a, k_bases, beta)),
                         (reg.lambda_orth, lambda: nodes["orth"](k_bases)),
                         (reg.lambda_l1, lambda: nodes["l1"](beta))):
        if weight:
            obj = add(obj, mul(term(), weight))
    obj.backward()
    return {name: leaf.grad for name, leaf in leaves.items()}


def bayes_accuracy_loop(benchmark, sample, alpha):
    """``gdu.datagen.bayes_accuracy``, one row, class and component at a time."""
    elem = benchmark.elementary
    correct = 0
    for x, label in zip(sample.x, sample.y):
        scores = []
        for c in range(elem.n_classes):
            terms = []
            for j in range(elem.n_components):
                if alpha[j] == 0.0:
                    continue
                # Unit variance in every coordinate, and a 1/C class prior.
                log_density = 0.0
                for d in range(elem.input_dim):
                    diff = float(x[d]) - float(elem.class_means[j, c, d])
                    log_density -= 0.5 * (diff * diff + math.log(2.0 * math.pi))
                terms.append(math.log(alpha[j]) + math.log(1.0 / elem.n_classes) + log_density)
            top = max(terms)
            scores.append(top + math.log(sum(math.exp(t - top) for t in terms)))
        correct += scores.index(max(scores)) == label
    return correct / len(sample.y)
