"""Desk-scale Monte Carlo verification of the overlap theory.

Synthetic two-class Gaussian data with per-sample label confidences, the
scalar-channel alignment check, and three classifiers to confront the theory:

- ``classify_oracle``          knows the class centers (error Q(sqrt(lam))),
- ``classify_supervised``      plug-in direction from labeled samples only,
- ``classify_semisupervised``  iterative posterior-mean scheme whose score
                               calibration follows the overlap recursion on
                               the dataset's realised mixture, one step per
                               pass.

``labeled_needed_empirical`` runs the labeled-count search for one eta: how
many kappa-reliable labels the semi-supervised classifier needs to match an
eta fraction of certain ones.  It draws its replicates and runs its
reference inside the call, scores the replicates on a process pool that
ends with the call, and keeps nothing afterwards.

Randomness.  All draws use ``numpy.random.default_rng`` (PCG64) with explicit
seeding; replicate r of a study derives its stream from the seed sequence
``(seed, r)``, so replicates are independent and every run is reproducible
bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import _check_count, _check_eps, _check_nonneg, _check_real, _check_seed
from .kernel import _check_unit, _posterior_mean_at, posterior_mean
from .overlaps import EpsilonMixture, qu_from_qv, qv_from_qu
from .risk import labeled_needed

__all__ = [
    "SimulationError",
    "Dataset",
    "ClassifierOutput",
    "generate_dataset",
    "channel_overlap_mc_stats",
    "classify_oracle",
    "classify_supervised",
    "classify_semisupervised",
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


def _check_kappa(kappa) -> float:
    """A labeler's reliability for a draw, in (0.5, 1]; at 0.5 a label is noise."""
    kappa = _check_real(kappa, "kappa")
    if not 0.5 < kappa <= 1.0:  # nan fails it too
        raise ValueError("kappa must lie in (0.5, 1]")
    return kappa


def _check_labeling(labeling) -> list:
    """The (fraction, kappa) blocks as float pairs, checked."""
    blocks = []
    for index, block in enumerate(labeling):
        try:
            frac, kappa = block
        except (TypeError, ValueError):
            raise ValueError(
                f"labeling block {index} must be a (fraction, kappa) pair, got {block!r}"
            ) from None
        blocks.append((_check_unit(frac, "labeling fraction"), _check_kappa(kappa)))
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
    p, n, lam = _check_count(p, "p"), _check_count(n, "n"), _check_nonneg(lam, "lam")
    blocks = _check_labeling(labeling)
    rng, mu, y, features = _base_draw(p, n, lam, _check_seed(seed))
    eps = _draw_labels(rng, y, blocks)
    return Dataset(features=features, truth_labels=y, label_eps=eps, truth_mean=mu)


def channel_overlap_mc_stats(
    eps: float, q: float, trials: int, seed
) -> tuple[float, float]:
    """Monte Carlo channel alignment and its standard error.

    Simulates s with prior mean eps, u = sqrt(q) s + z, denoises with the
    posterior mean at sqrt(q) u, and averages s times the estimate.  The mean
    converges to the quadrature channel overlap at (eps, q).  A scalar eps in
    [-1, 1] and a finite nonnegative q are checked, as ``channel_overlap``
    checks them, before any draw.
    """
    eps = float(_check_eps(_check_real(eps, "eps")))
    q = _check_nonneg(q, "q")
    trials = _check_count(trials, "trials")
    rng = np.random.default_rng(_check_seed(seed))
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


def classify_semisupervised(
    ds: Dataset, lam: float, t_max: int = 50, stop_tol: float = 1e-6
) -> ClassifierOutput:
    """Iterative posterior-mean classifier calibrated by the overlap maps.

    Starting from the prior means v = eps, each pass forms the plug-in
    direction m = X v / n, scores every sample with its own contribution
    removed (s_i = x_i' m - ||x_i||^2 v_i / n), rescales the scores to the
    Gaussian-channel law u ~ q_u y + sqrt(q_u) Z predicted by the overlap
    recursion run alongside, and denoises with the posterior mean.  Stops at
    ``t_max`` passes or when the mean absolute update falls below
    ``stop_tol``.

    The recursion q_u = qu_from_qv(lam, c, q_v), q_v = qv_from_qu(mixture,
    q_u) starts from q_v = eps_bar_sq and takes one step per pass, so a run
    computes no step beyond the pass it reaches.  It runs on c = n/p and the
    realised mixture ``EpsilonMixture.from_samples(ds.label_eps)``, both
    taken from the dataset.  ``lam``, the one input the dataset does not fix
    bit for bit, must be finite and nonnegative (``ValueError``) and match
    ``ds.snr`` within 1e-6 relative (``SimulationError``); it, ``t_max``,
    ``stop_tol`` (finite and nonnegative) and the confidences (in [-1, 1])
    are checked before any pass.

    The self-feedback removal uses the exact per-sample column norm rather
    than its expectation; the calibration trusts (lam, c) through
    the recursion instead of estimating the score SNR from data.
    """
    lam = _check_nonneg(lam, "lam")
    if abs(ds.snr - lam) > 1e-6 * max(1.0, lam):
        raise SimulationError(f"lam = {lam} does not match the dataset snr = {ds.snr}")
    t_max = _check_count(t_max, "t_max")
    stop_tol = _check_nonneg(stop_tol, "stop_tol")
    eps = _check_eps(ds.label_eps)
    n = ds.n
    c = n / ds.p
    mixture = EpsilonMixture.from_samples(eps)
    denoise = _posterior_mean_at(eps)
    X = ds.features
    col_sq_n = np.einsum("ij,ij->j", X, X) / n

    # np.add.reduce(x) / n is np.mean(x) bit for bit, without its overhead.
    v = eps.copy()
    q_v = mixture.eps_bar_sq
    iterations = 0
    for iterations in range(1, t_max + 1):
        if iterations > 1:
            q_v = qv_from_qu(mixture, q_u)
        q_u = qu_from_qv(lam, c, q_v)
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
    oracle = classify_oracle(ds).error_unlabeled
    semi = classify_semisupervised(ds, lam, t_max=t_max).error_unlabeled
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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = deque(pool.submit(run, next(streams)) for _ in range(workers))
        results = []
        while in_flight:
            results.append(in_flight.popleft().result())
            stream = next(streams, None)
            if stream is not None:
                in_flight.append(pool.submit(run, stream))
        return results


def _draw_bank(p: int, n: int, lam: float, seed, reps: int) -> list:
    """Per replicate r of (seed, r): (mu, y, features) and the generator
    state after the noise draw.

    Restoring the state and drawing the label blocks rebuilds exactly the
    dataset ``generate_dataset`` draws from (seed, r), so every probe of a
    labeled-count search shares one draw of each replicate.
    """
    bank = []
    for r in range(reps):
        rng, mu, y, features = _base_draw(p, n, lam, _rep_stream(seed, r))
        bank.append((mu, y, features, rng.bit_generator.state))
    return bank


def _dataset_from_bank(entry, blocks) -> Dataset:
    """The replicate's dataset with the checked label ``blocks`` drawn afresh."""
    mu, y, features, state = entry
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return Dataset(
        features=features, truth_labels=y, label_eps=_draw_labels(rng, y, blocks), truth_mean=mu
    )


# The replicate bank of a labeled-count search, in a worker of its pool only:
# the pool's initializer sets it, and the calling process never does.
_worker_bank: list = []


def _hold_bank(bank: list) -> None:
    global _worker_bank
    _worker_bank = bank


def _replicate_hard_labels(lam: float, blocks, t_max: int, r: int) -> np.ndarray:
    """In a pool worker: replicate r's semi-supervised hard labels under the
    checked label ``blocks``."""
    ds = _dataset_from_bank(_worker_bank[r], blocks)
    return classify_semisupervised(ds, lam, t_max=t_max).hard_labels


def _replicate_pool(bank: list):
    """A process pool of min(reps, usable cores) workers that each hold ``bank``.

    The workers are forked where the platform offers fork, so the bank is not
    pickled and its pages are shared copy-on-write; elsewhere the platform's
    default start method pickles it once per worker.  ``multiprocessing`` is
    imported here, not at module level, to keep it off every command's
    start-up.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()  # the platform default first
    return ProcessPoolExecutor(
        max_workers=min(len(bank), _usable_cores()),
        mp_context=multiprocessing.get_context("fork" if "fork" in methods else methods[0]),
        initializer=_hold_bank,
        initargs=(bank,),
    )


def _hard_labels(pool, bank, lam: float, n_labeled: int, kappa: float, t_max: int) -> list:
    """Per replicate, in order, the semi-supervised hard labels when the first
    ``n_labeled`` samples carry kappa-reliable labels; the replicates run on
    ``pool``, a ``_replicate_pool(bank)``.  A failing replicate raises as in
    a serial loop: the first in replicate order.

    Processes, not threads: a 200 x 1000 pass takes about 125 us, its
    recursion step about 20 us of that (one BLAS thread, 2-core host), and
    only its two matrix-vector products, about 70 us, release the GIL.  At
    ``labeled-needed``'s defaults with etas [0.02] on 2 cores (one BLAS
    thread), the command took 4.7 s with the replicates run serially, 6.1 s
    on two threads and 3.4 s on two forked workers (medians of 11 runs each,
    the three interleaved).
    """
    blocks = _check_labeling([(n_labeled / bank[0][1].size, kappa)])
    run = functools.partial(_replicate_hard_labels, lam, blocks, t_max)
    return list(pool.map(run, range(len(bank))))


def _probe(
    pool, bank, reference_hard, lam: float, n_labeled: int, kappa: float, t_max: int
) -> float:
    """Mean over replicates of the candidate's error minus the reference's,
    both on the candidate's unlabeled subset."""
    diffs = []
    for (_, y, _, _), cand_hard, ref_hard in zip(
        bank, _hard_labels(pool, bank, lam, n_labeled, kappa, t_max), reference_hard
    ):
        sl = slice(n_labeled, y.size)
        truth = y[sl]
        cand = float(np.mean(cand_hard[sl] != truth))
        ref = float(np.mean(ref_hard[sl] != truth))
        diffs.append(cand - ref)
    return float(np.mean(diffs))


def _search_count(pool, bank, reference_hard, lam, kappa, t_max, n_ref: int, hi: int) -> int:
    """Smallest labeled count whose probe meets the reference, by doubling
    from ``n_ref`` up to ``hi`` and then integer bisection; each count is
    probed at most once.  At kappa = 1 the probe at ``n_ref`` would repeat
    the reference run exactly, so its paired mean is 0.0 without a run."""
    paired: dict[int, float] = {n_ref: 0.0} if kappa == 1.0 else {}

    def satisfied(n_l: int) -> bool:
        if n_l not in paired:
            paired[n_l] = _probe(pool, bank, reference_hard, lam, n_l, kappa, t_max)
        return paired[n_l] <= 0.0

    if satisfied(n_ref):
        lo, up = 0, n_ref
    else:
        lo = up = n_ref
        while not satisfied(up):
            if up >= hi:
                raise SimulationError(
                    f"reference error not reached at kappa = {kappa:.6g} by any "
                    f"measurable labeled count up to {hi}"
                )
            lo, up = up, min(max(2 * up, 1), hi)
    while up - lo > 1:
        mid = (lo + up) // 2
        if satisfied(mid):
            up = mid
        else:
            lo = mid
    return up


def labeled_needed_empirical(
    p: int, n: int, lam: float, eta: float, kappas, seed, reps: int = 10, t_max: int = 40
) -> list[int]:
    """Smallest labeled count at each reliability in ``kappas`` whose
    semi-supervised error matches the eta-certainty reference, by search.

    The reference labels a fraction eta of the samples exactly (kappa = 1).
    For each kappa in turn, doubling then integer bisection runs over the
    monotone-in-expectation error curve; every probe is averaged over
    ``reps`` replicate streams derived from (seed, r).  Noise is suppressed
    with common random numbers: a probe meets the reference when its paired
    error difference to the reference run, on the candidate's unlabeled
    subset of the same replicates, is at most zero, so dataset-level
    fluctuations cancel.

    One call does the whole study for one eta.  Every argument, the seed
    for bools only, is checked before any draw.  Each replicate's center,
    truth and noise are then drawn once, the reference runs once, and a
    probe draws only its labels.  The replicates of the reference and of
    every probe run on one process pool of min(reps, usable cores) workers,
    which is shut down before the call returns; the results do not depend on
    the worker count.  The draws and every probe result are local to the
    call and freed when it returns.

    Infeasible reliabilities ((2 kappa - 1)^2 < eta) raise
    ``InfeasibilityError``; the search fails with ``SimulationError`` if
    even the largest measurable labeled count (at least one in twenty
    samples stays unlabeled for evaluation) misses the reference.  Returns
    the counts in the order of ``kappas``.
    """
    kappas = [_check_kappa(k) for k in kappas]
    if not kappas:
        raise ValueError("kappas must not be empty")
    p, n, lam = _check_count(p, "p"), _check_count(n, "n"), _check_nonneg(lam, "lam")
    for kappa in kappas:
        labeled_needed(eta, kappa, n)  # eta's range, and each kappa's feasibility
    reps = _check_count(reps, "reps")
    t_max = _check_count(t_max, "t_max")
    _check_seed(seed)
    n_ref = int(round(labeled_needed(eta, 1.0, n)))  # eta n, the reference's count
    hi = n - max(1, int(round(0.05 * n)))
    if n_ref > hi:
        raise SimulationError("reference labeled count leaves too few samples to evaluate")

    bank = _draw_bank(p, n, lam, seed, reps)
    with _replicate_pool(bank) as pool:
        reference_hard = _hard_labels(pool, bank, lam, n_ref, 1.0, t_max)
        return [
            _search_count(pool, bank, reference_hard, lam, k, t_max, n_ref, hi) for k in kappas
        ]
