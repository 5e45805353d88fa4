"""Desk-scale Monte Carlo verification of the overlap theory.

Synthetic two-class Gaussian data with per-sample label confidences, the
scalar-channel alignment check, and three classifiers to confront the theory:

- ``classify_oracle``          knows the class centers (error Q(sqrt(lam))),
- ``classify_supervised``      plug-in direction from labeled samples only,
- ``classify_semisupervised``  iterative posterior-mean scheme whose score
                               calibration is driven by the overlap maps.

``labeled_needed_empirical`` runs the labeled-count search for one eta: how
many kappa-reliable labels the semi-supervised classifier needs to match an
eta fraction of certain ones.  It draws its replicates and runs its
reference inside the call and keeps nothing afterwards.

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

from .kernel import _check_eps, _check_snr, _posterior_mean_at, posterior_mean
from .overlaps import EpsilonMixture, ProblemParams, qu_from_qv, qv_from_qu
from .risk import InfeasibilityError, _check_int

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


def _check_sizes(p, n, lam) -> tuple[int, int, float]:
    p = _check_int(p, "p")
    n = _check_int(n, "n")
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
    converges to the quadrature channel overlap at (eps, q).  A scalar eps in
    [-1, 1] and a finite nonnegative q are checked, as ``channel_overlap``
    checks them, before any draw.
    """
    eps = _check_eps(eps)
    if eps.ndim != 0:
        raise ValueError("eps must be a scalar")
    eps = float(eps)
    q = _check_snr(q)
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
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


def _hard_labels(bank, lam: float, n_labeled: int, kappa: float, t_max: int) -> list:
    """Per replicate, the semi-supervised hard labels when the first
    ``n_labeled`` samples carry kappa-reliable labels.

    The replicates run serially on purpose.  A 200 x 1000 pass takes about
    140 us once its calibration is cached (best of 5 x 300 runs, one BLAS
    thread, 2-core host), of which its two matrix-vector products, which
    release the GIL, take about 100 us; computing the calibration step adds
    about 40 us to a pass.  With the earlier ~160 us pass, which held the
    GIL for about 40 % of its time, running the replicates on threads slowed
    ``labeled-needed`` at its defaults with etas [0.02] from 5.2 s to 6.1 s
    (medians of 3 runs, 2 cores).
    """
    p, n = bank[0][2].shape
    blocks = _check_labeling([(n_labeled / n, kappa)])
    hard = []
    for entry in bank:
        ds = _dataset_from_bank(entry, blocks)
        params = ProblemParams(lam=lam, c=n / p, mixture=EpsilonMixture.from_samples(ds.label_eps))
        hard.append(classify_semisupervised(ds, params, t_max=t_max).hard_labels)
    return hard


def _probe(bank, reference_hard, lam: float, n_labeled: int, kappa: float, t_max: int) -> float:
    """Mean over replicates of the candidate's error minus the reference's,
    both on the candidate's unlabeled subset."""
    diffs = []
    for (_, y, _, _), cand_hard, ref_hard in zip(
        bank, _hard_labels(bank, lam, n_labeled, kappa, t_max), reference_hard
    ):
        sl = slice(n_labeled, y.size)
        truth = y[sl]
        cand = float(np.mean(cand_hard[sl] != truth))
        ref = float(np.mean(ref_hard[sl] != truth))
        diffs.append(cand - ref)
    return float(np.mean(diffs))


def _search_count(bank, reference_hard, lam, kappa, t_max, n_ref: int, hi: int) -> int:
    """Smallest labeled count whose probe meets the reference, by doubling
    from ``n_ref`` up to ``hi`` and then integer bisection; each count is
    probed at most once."""
    paired: dict[int, float] = {}

    def satisfied(n_l: int) -> bool:
        if n_l not in paired:
            paired[n_l] = _probe(bank, reference_hard, lam, n_l, kappa, t_max)
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

    One call does the whole study for one eta.  Every argument but the seed
    is checked before any draw.  Each replicate's center, truth and noise are
    then drawn once, the reference runs once, and a probe draws only its
    labels; the draws and every probe result are local to the call and freed
    when it returns.

    Infeasible reliabilities ((2 kappa - 1)^2 < eta) raise
    ``InfeasibilityError``; the search fails with ``SimulationError`` if
    even the largest measurable labeled count (at least one in twenty
    samples stays unlabeled for evaluation) misses the reference.  Returns
    the counts in the order of ``kappas``.
    """
    eta = float(eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ValueError("kappas must not be empty")
    for kappa in kappas:
        if not 0.5 < kappa <= 1.0:
            raise ValueError("kappa must lie in (0.5, 1]")
        if (2.0 * kappa - 1.0) ** 2 < eta:
            raise InfeasibilityError(
                f"(2 kappa - 1)^2 = {(2 * kappa - 1) ** 2:.6g} < eta = {eta:.6g}: "
                "no labeled count can reach the reference confidence level"
            )
    p, n, lam = _check_sizes(p, n, lam)
    reps = _check_int(reps, "reps")
    t_max = _check_int(t_max, "t_max")
    if reps < 1 or t_max < 1:
        raise ValueError("reps and t_max must be at least 1")
    n_ref = int(round(eta * n))
    hi = n - max(1, int(round(0.05 * n)))
    if n_ref > hi:
        raise SimulationError("reference labeled count leaves too few samples to evaluate")

    bank = _draw_bank(p, n, lam, seed, reps)
    reference_hard = _hard_labels(bank, lam, n_ref, 1.0, t_max)
    return [_search_count(bank, reference_hard, lam, k, t_max, n_ref, hi) for k in kappas]
