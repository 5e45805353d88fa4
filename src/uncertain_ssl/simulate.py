"""Desk-scale Monte Carlo verification of the overlap theory.

Synthetic two-class Gaussian data with per-sample label confidences, the
scalar-channel alignment check, and three classifiers to confront the theory:

- ``classify_oracle``          knows the class centers (error Q(sqrt(lam))),
- ``classify_supervised``      plug-in direction from labeled samples only,
- ``classify_semisupervised``  iterative posterior-mean scheme whose score
                               calibration is driven by the overlap maps.

Randomness.  All draws use ``numpy.random.default_rng`` (PCG64) with explicit
seeding; replicate r of a study derives its stream from the seed sequence
``(seed, r)``, so replicates are independent and every run is reproducible
bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import _check_eps, _posterior_mean_at, posterior_mean
from .overlaps import EpsilonMixture, ProblemParams, qu_from_qv, qv_from_qu
from .risk import InfeasibilityError

__all__ = [
    "SimulationError",
    "Dataset",
    "ClassifierOutput",
    "generate_dataset",
    "channel_overlap_mc_stats",
    "classify_oracle",
    "classify_supervised",
    "classify_semisupervised",
    "reference_error",
    "labeled_needed_empirical",
]


class SimulationError(RuntimeError):
    """Degenerate simulation state (no usable labels, zero scores, size mismatch)."""


@dataclass
class Dataset:
    """Synthetic mixture sample with the hidden truth retained for scoring.

    ``features`` is p x n with column i distributed as y_i * truth_mean plus
    standard normal noise; ``label_eps`` holds each sample's signed confidence
    (0 for unlabeled).
    """

    features: np.ndarray
    truth_labels: np.ndarray
    label_eps: np.ndarray
    truth_mean: np.ndarray

    @property
    def p(self) -> int:
        return int(self.features.shape[0])

    @property
    def n(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_labeled(self) -> int:
        return int(np.count_nonzero(self.label_eps))

    @property
    def n_unlabeled(self) -> int:
        return self.n - self.n_labeled

    @property
    def snr(self) -> float:
        """Squared center norm ||mu||^2 of the realised truth mean."""
        return float(self.truth_mean @ self.truth_mean)


@dataclass
class ClassifierOutput:
    """Soft scores in [-1, 1], hard ±1 decisions, and error rates.

    ``error_unlabeled`` is None when the dataset has no unlabeled samples;
    ties in the hard decision go to +1.  ``iterations`` is set by iterative
    classifiers only.
    """

    soft_scores: np.ndarray
    hard_labels: np.ndarray
    error_unlabeled: Optional[float]
    error_all: float
    iterations: Optional[int] = None


def _hard_decisions(scores: np.ndarray) -> np.ndarray:
    return np.where(scores >= 0.0, 1, -1).astype(np.int64)


def _output_from_soft(soft: np.ndarray, ds: Dataset, iterations=None) -> ClassifierOutput:
    hard = _hard_decisions(soft)
    wrong = hard != ds.truth_labels
    unlabeled = ds.label_eps == 0.0
    err_unl = float(np.mean(wrong[unlabeled])) if np.any(unlabeled) else None
    return ClassifierOutput(
        soft_scores=soft,
        hard_labels=hard,
        error_unlabeled=err_unl,
        error_all=float(np.mean(wrong)),
        iterations=iterations,
    )


def _check_sizes(p, n, lam) -> tuple[int, int, float]:
    p = int(p)
    n = int(n)
    if p < 1 or n < 1:
        raise ValueError("p and n must be positive integers")
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError("lam must be finite and nonnegative")
    return p, n, lam


def _check_labeling(labeling) -> list:
    blocks = [(float(f), float(k)) for f, k in labeling]
    for frac, kappa in blocks:
        if not 0.0 <= frac <= 1.0:
            raise ValueError("labeling fractions must lie in [0, 1]")
        if not 0.5 < kappa <= 1.0:
            raise ValueError("labeler reliability kappa must lie in (0.5, 1]")
    if sum(f for f, _ in blocks) > 1.0 + 1e-9:
        raise ValueError("labeling fractions must sum to at most 1")
    return blocks


# Cells per block of rows when the class means are added into the noise.
_ROW_BLOCK_CELLS = 1 << 15


def _base_draw(p: int, n: int, lam: float, seed):
    """Center, shuffled truth and features; returns them with the generator.

    The generator is left just after the noise draw, where the label blocks
    continue the stream.  The class means are added into the noise matrix in
    place, a block of rows at a time, so the draw holds one p x n matrix;
    noise + mean is mean + noise bit for bit.
    """
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(p)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise SimulationError("degenerate zero direction draw")
    mu = math.sqrt(lam) * direction / norm

    y = np.ones(n, dtype=np.int64)
    y[: n // 2] = -1
    y = y[rng.permutation(n)]

    features = rng.standard_normal((p, n))
    step = max(1, _ROW_BLOCK_CELLS // n)
    for start in range(0, p, step):
        block = features[start : start + step]
        block += mu[start : start + step, None] * y
    return rng, mu, y, features


def _draw_labels(rng, y: np.ndarray, blocks) -> np.ndarray:
    """Signed confidences of the checked ``blocks``, drawn from ``rng`` in order."""
    n = y.size
    eps = np.zeros(n, dtype=float)
    start = 0
    for frac, kappa in blocks:
        count = int(round(frac * n))
        if start + count > n:
            raise ValueError("labeling blocks exceed the sample count")
        sl = slice(start, start + count)
        correct = rng.random(count) < kappa
        report = np.where(correct, y[sl], -y[sl])
        eps[sl] = report * (2.0 * kappa - 1.0)
        start += count
    return eps


def generate_dataset(p: int, n: int, lam: float, labeling, seed) -> Dataset:
    """Draw a balanced two-class Gaussian sample with block-wise labeling.

    ``labeling`` is a sequence of (fraction, kappa) blocks: consecutive index
    ranges of round(fraction * n) samples each receive a reported class that
    matches the truth with probability kappa in (0.5, 1], and the confidence
    couple assigns probability kappa to the report, i.e.
    eps = report * (2 kappa - 1).  Remaining samples stay unlabeled (eps = 0).

    The center is a uniformly random direction scaled to ||mu||^2 = lam, the
    ±1 truth is balanced (counts differ by at most one, the odd sample going
    to +1) and shuffled.  The draw order (center direction, truth permutation,
    noise matrix, then one reliability uniform per labeled sample block by
    block) is fixed, so runs that share a seed and differ only in a block's
    fraction share every other draw (common random numbers).
    """
    p, n, lam = _check_sizes(p, n, lam)
    blocks = _check_labeling(labeling)
    rng, mu, y, features = _base_draw(p, n, lam, seed)
    eps = _draw_labels(rng, y, blocks)
    return Dataset(features=features, truth_labels=y, label_eps=eps, truth_mean=mu)


def channel_overlap_mc_stats(
    eps: float, q: float, trials: int, seed
) -> tuple[float, float]:
    """Monte Carlo channel alignment and its standard error.

    Simulates s with prior mean eps, u = sqrt(q) s + z, denoises with the
    posterior mean at sqrt(q) u, and averages s times the estimate.  The mean
    converges to the quadrature channel overlap at (eps, q).
    """
    eps = float(eps)
    q = float(q)
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if q < 0.0:
        raise ValueError("q must be nonnegative")
    rng = np.random.default_rng(seed)
    s = np.where(rng.random(trials) < (1.0 + eps) / 2.0, 1.0, -1.0)
    u = math.sqrt(q) * s + rng.standard_normal(trials)
    aligned = s * posterior_mean(eps, math.sqrt(q) * u)
    mean = float(np.mean(aligned))
    stderr = float(np.std(aligned) / math.sqrt(trials))
    return mean, stderr


def classify_oracle(ds: Dataset) -> ClassifierOutput:
    """Classifier that knows the true center: decisions sign(x_i' mu).

    The projected scores are unit-variance Gaussians at ±||mu||^2, so the
    expected error is the Gaussian tail at sqrt(snr).
    """
    scores = ds.features.T @ ds.truth_mean
    return _output_from_soft(np.tanh(scores), ds)


def classify_supervised(ds: Dataset) -> ClassifierOutput:
    """Confidence-weighted plug-in using labeled samples only.

    Estimates the direction as (1/n) sum_i eps_i x_i (unlabeled samples
    contribute nothing) and classifies every sample by the sign of its
    projection.  Fails when no labeled samples exist.
    """
    if ds.n_labeled == 0:
        raise SimulationError("supervised classifier needs labeled samples")
    direction = ds.features @ ds.label_eps / ds.n
    if not np.any(direction):
        raise SimulationError("labeled contributions cancelled to a zero direction")
    scores = ds.features.T @ direction
    return _output_from_soft(np.tanh(scores), ds)


class _Calibration:
    """Score SNRs q_u of the passes on one realised mixture.

    They follow the overlap recursion q_u = qu_from_qv(lam, c, q_v),
    q_v = qv_from_qu(mixture, q_u) from q_v = eps_bar_sq, so they depend only
    on (lam, c, mixture).  Pass t's value is computed the first time a run
    reaches pass t and kept for later runs; extension holds a lock, so runs
    on threads read the same values however they interleave.
    """

    def __init__(self, lam: float, c: float, mixture: EpsilonMixture):
        self._lam, self._c, self._mixture = lam, c, mixture
        self._q_v = mixture.eps_bar_sq
        self._q_u: list[float] = []
        self._lock = threading.Lock()

    def q_u(self, t: int) -> float:
        """The score SNR of pass t (0-based)."""
        q_u = self._q_u
        if t < len(q_u):  # the list only grows
            return q_u[t]
        with self._lock:
            while len(q_u) <= t:
                if q_u:
                    self._q_v = qv_from_qu(self._mixture, q_u[-1])
                q_u.append(qu_from_qv(self._lam, self._c, self._q_v))
            return q_u[t]


@functools.lru_cache(maxsize=16)
def _calibration(lam: float, c: float, mixture: EpsilonMixture) -> _Calibration:
    """The shared pass calibration of the realised mixture at (lam, c).

    The replicates of one labeled-count probe realise the same mixture
    whenever their labeled blocks hold as many positive reports.  At
    ``labeled-needed``'s defaults with etas [0.02], 460 runs realise 335
    distinct mixtures; sixteen entries keep 118 of the 125 repeats.
    """
    return _Calibration(lam, c, mixture)


def classify_semisupervised(
    ds: Dataset, params: ProblemParams, t_max: int = 50, stop_tol: float = 1e-6
) -> ClassifierOutput:
    """Iterative posterior-mean classifier calibrated by the overlap maps.

    Starting from the prior means v = eps, each pass forms the plug-in
    direction m = X v / n, scores every sample with its own contribution
    removed (s_i = x_i' m - ||x_i||^2 v_i / n), rescales the scores to the
    Gaussian-channel law u ~ q_u y + sqrt(q_u) Z predicted by the overlap
    recursion run alongside on the realised confidence mixture, and denoises
    with the posterior mean.  Stops at ``t_max`` passes or when the mean
    absolute update falls below ``stop_tol``.

    ``params.mixture`` must be the realised mixture,
    ``EpsilonMixture.from_samples(ds.label_eps)``: the recursion runs on it
    as given.  A mixture whose mean squared confidence differs from the
    samples' by more than 1e-9 raises ``SimulationError``, as a mismatched
    ``c`` or ``lam`` does; a confidence outside [-1, 1] raises ``ValueError``.
    The recursion depends only on (lam, c, mixture), so its values are
    computed once per realised mixture and shared by later runs.

    The self-feedback removal uses the exact per-sample column norm rather
    than its expectation; the calibration trusts the known (lam, c) through
    the recursion instead of estimating the score SNR from data.
    """
    if not isinstance(params, ProblemParams):
        raise TypeError("params must be a ProblemParams")
    if int(t_max) < 1:
        raise ValueError("t_max must be at least 1")
    eps = _check_eps(ds.label_eps)
    n, p = ds.n, ds.p
    if abs(params.c - n / p) > 1e-9 * max(1.0, params.c):
        raise SimulationError(
            f"params.c = {params.c} does not match the dataset ratio n/p = {n / p}"
        )
    if abs(ds.snr - params.lam) > 1e-6 * max(1.0, params.lam):
        raise SimulationError(
            f"params.lam = {params.lam} does not match the dataset snr = {ds.snr}"
        )
    lam, c, mixture = params.lam, params.c, params.mixture
    realised_sq = float(np.add.reduce(eps * eps)) / n
    if abs(mixture.eps_bar_sq - realised_sq) > 1e-9:
        raise SimulationError(
            f"params.mixture has eps_bar_sq = {mixture.eps_bar_sq}, the dataset's "
            f"confidences {realised_sq}: pass the realised mixture"
        )
    calibration = _calibration(lam, c, mixture)
    denoise = _posterior_mean_at(eps)
    X = ds.features
    col_sq_n = np.einsum("ij,ij->j", X, X) / n

    # np.add.reduce(x) / n is np.mean(x) bit for bit, without its overhead.
    v = eps.copy()
    iterations = 0
    for iterations in range(1, int(t_max) + 1):
        q_u = calibration.q_u(iterations - 1)
        raw = X.T @ (X @ v / n) - col_sq_n * v
        if q_u == 0.0:
            u = np.zeros(n)
        else:
            mean_sq = float(np.add.reduce(raw * raw)) / n
            if mean_sq == 0.0:
                raise SimulationError("degenerate scores: zero second moment")
            scale = math.sqrt(mean_sq / (q_u * (q_u + 1.0)))
            u = raw / scale
        v_new = denoise(u)
        delta = float(np.add.reduce(np.abs(v_new - v))) / n
        v = v_new
        if delta < stop_tol:
            break
    return _output_from_soft(v, ds, iterations=iterations)


def _rep_stream(seed, rep: int):
    if isinstance(seed, (int, np.integer)):
        return [int(seed), rep]
    return list(seed) + [rep]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _fresh_replicate(p, n, lam, labeling, t_max, stream) -> tuple:
    ds = generate_dataset(p, n, lam, labeling, seed=stream)
    params = ProblemParams(lam=lam, c=n / p, mixture=EpsilonMixture.from_samples(ds.label_eps))
    oracle = classify_oracle(ds).error_unlabeled
    semi = classify_semisupervised(ds, params, t_max=t_max).error_unlabeled
    sup = classify_supervised(ds).error_unlabeled if ds.n_labeled > 0 else None
    return oracle, sup, semi


def _fresh_replicate_errors(p, n, lam, labeling, seed, reps: int, t_max: int) -> list:
    """Per replicate r of (seed, r), in order: the unlabeled-sample errors
    (oracle, supervised or None without labels, semi-supervised) on a fresh
    draw.

    Replicates are independent and their numpy work releases the GIL, so they
    run on min(reps, usable cores) threads, each holding one replicate; the
    results do not depend on the thread count.  At most one replicate per
    thread is in flight and each stream is built when its replicate is
    submitted, so only the list of results grows with ``reps``.  A failing
    replicate raises as in a serial loop: the first in replicate order.
    """
    run = functools.partial(_fresh_replicate, p, n, lam, labeling, t_max)
    streams = (_rep_stream(seed, r) for r in range(reps))
    workers = min(reps, _usable_cores())
    if workers <= 1:
        return [run(stream) for stream in streams]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = deque(pool.submit(run, next(streams)) for _ in range(workers))
        results = []
        while in_flight:
            results.append(in_flight.popleft().result())
            stream = next(streams, None)
            if stream is not None:
                in_flight.append(pool.submit(run, stream))
        return results


def _stream_key(seed):
    """Hashable form of a study seed, drawing the same replicate streams."""
    return seed if isinstance(seed, (int, np.integer)) else tuple(seed)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _replicate_bank(p: int, n: int, lam: float, stream, reps: int) -> tuple:
    """Per replicate r of (stream, r): read-only (mu, y, features) and the
    generator state after the noise draw.

    Restoring the state and drawing the label blocks rebuilds exactly the
    dataset ``generate_dataset`` draws from (stream, r), so the probes of a
    labeled-count search share one draw of each replicate.
    """
    p, n, lam = _check_sizes(p, n, lam)
    bank = []
    for r in range(int(reps)):
        rng, mu, y, features = _base_draw(p, n, lam, _rep_stream(stream, r))
        _read_only(mu, y, features)
        bank.append((mu, y, features, rng.bit_generator.state))
    return tuple(bank)


def _dataset_from_bank(entry, blocks) -> Dataset:
    """The replicate's dataset with the checked label ``blocks`` drawn afresh."""
    mu, y, features, state = entry
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return Dataset(
        features=features, truth_labels=y, label_eps=_draw_labels(rng, y, blocks), truth_mean=mu
    )


def _mean_errors(
    p: int,
    n: int,
    lam: float,
    n_labeled: int,
    kappa: float,
    stream,
    reps: int,
    t_max: int,
    reference_hard=None,
):
    """Per-rep semi-supervised runs at a fixed labeled count.

    Returns (own-subset mean error, paired difference to the reference hard
    labels on the candidate's unlabeled subset or None, per-rep hard labels).

    The replicates run serially on purpose.  A 200 x 1000 pass takes about
    140 us once its calibration is cached (best of 5 x 300 runs, one BLAS
    thread, 2-core host), of which its two matrix-vector products, which
    release the GIL, take about 100 us; computing the calibration step adds
    about 40 us to a pass.  With the earlier ~160 us pass, which held the
    GIL for about 40 % of its time, running the replicates on threads slowed
    ``labeled-needed`` at its defaults with etas [0.02] from 5.2 s to 6.1 s
    (medians of 3 runs, 2 cores).
    """
    bank = _replicate_bank(p, n, lam, stream, reps)
    blocks = _check_labeling([(n_labeled / n, kappa)])
    own_errors = []
    diffs = []
    hard = []
    for r, entry in enumerate(bank):
        ds = _dataset_from_bank(entry, blocks)
        out = classify_semisupervised(
            ds, ProblemParams(lam=lam, c=n / p, mixture=EpsilonMixture.from_samples(ds.label_eps)),
            t_max=t_max,
        )
        hard.append(out.hard_labels)
        if out.error_unlabeled is None:
            raise SimulationError("candidate labeled count leaves no unlabeled samples")
        own_errors.append(out.error_unlabeled)
        if reference_hard is not None:
            sl = slice(n_labeled, n)
            truth = ds.truth_labels[sl]
            cand = float(np.mean(out.hard_labels[sl] != truth))
            ref = float(np.mean(reference_hard[r][sl] != truth))
            diffs.append(cand - ref)
    paired = float(np.mean(diffs)) if diffs else None
    return float(np.mean(own_errors)), paired, hard


@functools.lru_cache(maxsize=1)
def _reference_run(
    p: int, n: int, lam: float, n_ref: int, stream, reps: int, t_max: int
) -> tuple[float, tuple]:
    """Mean error and read-only per-rep hard labels of the kappa = 1 run."""
    mean_err, _, hard = _mean_errors(p, n, lam, n_ref, 1.0, stream, reps, t_max)
    _read_only(*hard)
    return mean_err, tuple(hard)


def reference_error(
    p: int, n: int, lam: float, eta: float, seed, reps: int = 10, t_max: int = 40
) -> float:
    """Mean semi-supervised error of the certainty-labeled reference run.

    A fraction eta of the samples carries exact labels (kappa = 1); the error
    is measured on the unlabeled remainder and averaged over ``reps``
    replicate streams derived from (seed, r).  This is the target the
    empirical labeled-count search reproduces with less reliable labels.
    """
    n_ref = int(round(float(eta) * n))
    return _reference_run(p, n, lam, n_ref, _stream_key(seed), reps, t_max)[0]


def labeled_needed_empirical(
    p: int,
    n: int,
    lam: float,
    eta: float,
    kappa: float,
    target_error: float,
    seed,
    reps: int = 10,
    t_max: int = 40,
) -> int:
    """Smallest labeled count whose mean error meets the target, by search.

    Doubling then integer bisection over the monotone-in-expectation error
    curve; every probe is averaged over ``reps`` replicate streams.  Noise is
    suppressed with common random numbers: each probe reuses the replicate's
    data draws, and its error estimate is anchored to the (eta, kappa = 1)
    reference run on the same streams, i.e. the candidate error is
    estimated as reference level plus the paired error difference on the
    candidate's unlabeled subset, so dataset-level fluctuations cancel.
    Each replicate's center, truth and noise are drawn once and each
    reference run is made once, shared with ``reference_error``; a probe
    draws only its labels.

    Infeasible reliabilities ((2 kappa - 1)^2 < eta) are rejected; the search
    fails if even the largest measurable labeled count (at least one in
    twenty samples stays unlabeled for evaluation) misses the target.
    """
    eta = float(eta)
    kappa = float(kappa)
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if not 0.5 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0.5, 1]")
    if (2.0 * kappa - 1.0) ** 2 < eta:
        raise InfeasibilityError(
            f"(2 kappa - 1)^2 = {(2 * kappa - 1) ** 2:.6g} < eta = {eta:.6g}: "
            "no labeled count can reach the reference confidence level"
        )
    target_error = float(target_error)

    n_ref = int(round(eta * n))
    stream = _stream_key(seed)
    ref_own, reference_hard = _reference_run(p, n, lam, n_ref, stream, reps, t_max)
    offset = target_error - ref_own

    cache: dict[int, float] = {}

    def satisfied(n_l: int) -> bool:
        if n_l not in cache:
            _, paired, _ = _mean_errors(
                p, n, lam, n_l, kappa, stream, reps, t_max, reference_hard
            )
            cache[n_l] = paired
        return cache[n_l] <= offset

    hi = n - max(1, int(round(0.05 * n)))
    if n_ref > hi:
        raise SimulationError("reference labeled count leaves too few samples to evaluate")
    if satisfied(n_ref):
        lo, up = 0, n_ref
    else:
        lo = up = n_ref
        while not satisfied(up):
            if up >= hi:
                raise SimulationError(
                    f"target error {target_error:.4g} not reached by any measurable "
                    f"labeled count up to {hi}"
                )
            lo, up = up, min(max(2 * up, 1), hi)
    while up - lo > 1:
        mid = (lo + up) // 2
        if satisfied(mid):
            up = mid
        else:
            lo = mid
    return int(up)
