"""Desk-scale Monte Carlo verification of the overlap theory.

Synthetic two-class Gaussian data with per-sample label confidences, the
scalar-channel alignment check, and three classifiers to confront the theory:

- ``classify_oracle``          knows the class centers (error Q(sqrt(lam))),
- ``classify_supervised``      plug-in direction from labeled samples only,
- ``classify_semisupervised``  iterative posterior-mean scheme whose score
                               calibration follows the overlap recursion on
                               the dataset's realised mixture, one step per
                               pass, with the kernel's one denoiser and the
                               overlaps' one feature map, both unchecked
                               inside the loop.

``labeled_needed_empirical`` runs the labeled-count search for one eta: how
many kappa-reliable labels the semi-supervised classifier needs to match an
eta fraction of certain ones.  It starts one worker process per usable
core, up to one per replicate; each worker draws the replicates it owns and
keeps them for the call, and the calling process draws none.  Every kappa
is searched in rounds, each worker scoring a round's probes, the reference
in the first, as the columns of one classifier run per owned replicate.
The workers are joined before the call ends, and nothing is kept.  The
fresh-draw replicates of the ``simulate`` and ``reduction`` commands, every
point's at once, run on one thread pool per command
(``_fresh_replicate_errors`` on ``_thread_map``), and so do the cells of
``channel-check``.

Randomness.  All draws use ``numpy.random.default_rng`` with explicit
seeding; replicate r of a study derives its stream from the seed sequence
``(seed, r)``, so replicates are independent and every run is reproducible
bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import _check_count, _check_eps, _check_nonneg, _check_real, _check_seed
from .kernel import _check_unit, _posterior_mean_at, _real_array, posterior_mean
from .overlaps import EpsilonMixture, _check_gain, _feature_map, qv_from_qu
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
    """Degenerate simulation state (no usable labels, zero scores) or a
    labeled-count search that cannot meet its reference."""


@dataclass
class Dataset:
    """Synthetic mixture sample with the hidden truth retained for scoring.

    ``features`` is p x n with column i distributed as y_i * truth_mean plus
    standard normal noise; ``label_eps`` holds each sample's signed confidence
    (0 for unlabeled).  Each field is checked on construction; ``features``
    by its shape and dtype only, since a check per entry would cost a pass
    over the matrix for every replicate.
    """

    features: np.ndarray
    truth_labels: np.ndarray
    label_eps: np.ndarray
    truth_mean: np.ndarray

    def __post_init__(self):
        features = self.features
        if not (
            isinstance(features, np.ndarray) and features.ndim == 2 and features.dtype.kind in "iuf"
        ):
            raise ValueError("features must be a 2-D real array")
        p, n = features.shape
        y = _real_array(self.truth_labels, "truth_labels")
        if y.shape != (n,) or not (np.abs(y) == 1).all():
            raise ValueError(f"truth_labels must be {n} values of ±1, one per sample")
        eps = _real_array(self.label_eps, "label_eps")
        if eps.shape != (n,) or not (np.abs(eps) <= 1.0).all():  # nan fails it too
            raise ValueError(f"label_eps must be {n} values in [-1, 1], one per sample")
        mu = _real_array(self.truth_mean, "truth_mean")
        if mu.shape != (p,) or not np.isfinite(mu).all():
            raise ValueError(f"truth_mean must be {p} finite values, one per feature")
        self.truth_labels, self.label_eps, self.truth_mean = y, eps.astype(float, copy=False), mu

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
    """One replicate's random numbers, drawn from ``seed`` in this order: the
    center, the shuffled truth, the features and one reliability uniform per
    sample; returns (mu, y, features, uniforms).

    A labeling block reads the uniforms of its own samples.  The generator
    gives its doubles in stream order, so these are, bit for bit, the
    uniforms that drawing each block's in turn after the noise would give.  The class means
    are added into the noise matrix in place, a block of rows at a time, so
    the draw holds one p x n matrix; noise + mean is mean + noise bit for bit.
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
    return mu, y, features, rng.random(n)


def _dataset(draw, blocks) -> Dataset:
    """The dataset of a ``_base_draw`` under the checked label ``blocks``."""
    mu, y, features, uniforms = draw
    n = y.size
    eps = np.zeros(n, dtype=float)
    start, cumulative = 0, 0.0
    for frac, kappa in blocks:
        cumulative += frac
        end = min(round(cumulative * n), n)
        sl = slice(start, end)
        report = np.where(uniforms[sl] < kappa, y[sl], -y[sl])
        eps[sl] = report * (2.0 * kappa - 1.0)
        start = end
    return Dataset(features=features, truth_labels=y, label_eps=eps, truth_mean=mu)


def generate_dataset(p: int, n: int, lam: float, labeling, seed) -> Dataset:
    """Draw a balanced two-class Gaussian sample with block-wise labeling.

    ``labeling`` is a sequence of (fraction, kappa) blocks: consecutive index
    ranges, block i ending at min(round((f_1 + ... + f_i) n), n), each
    receive a reported class that matches the truth with probability kappa
    in (0.5, 1], and the confidence couple assigns probability kappa to the
    report, i.e. eps = report * (2 kappa - 1).  Remaining samples stay
    unlabeled (eps = 0); fractions that sum to 1 label every sample.

    The center is a uniformly random direction scaled to ||mu||^2 = lam, the
    ±1 truth is balanced (counts differ by at most one, the odd sample going
    to +1) and shuffled.  The draw order (center direction, truth permutation,
    noise matrix, then one reliability uniform per sample, which decides that
    sample's report if a block labels it) is fixed and does not depend on
    ``labeling``, so runs that share a seed and differ only in their labeling
    share every draw (common random numbers).
    """
    p, n, lam = _check_count(p, "p"), _check_count(n, "n"), _check_nonneg(lam, "lam")
    blocks = _check_labeling(labeling)
    return _dataset(_base_draw(p, n, lam, _check_seed(seed)), blocks)


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


# The semi-supervised passes stop once the mean absolute update falls below this.
_STOP_TOL = 1e-6


def classify_semisupervised(ds: Dataset, t_max: int = 50) -> ClassifierOutput:
    """Iterative posterior-mean classifier calibrated by the overlap maps.

    Starting from the prior means v = eps, each pass forms the plug-in
    direction m = X v / n, scores every sample with its own contribution
    removed (s_i = x_i' m - ||x_i||^2 v_i / n), rescales the scores to the
    Gaussian-channel law u ~ q_u y + sqrt(q_u) Z predicted by the overlap
    recursion run alongside, and denoises with the posterior mean.  Stops at
    ``t_max`` passes or when the mean absolute update falls below 1e-6.

    The recursion q_u = qu_from_qv(lam, c, q_v), q_v = qv_from_qu(mixture,
    q_u) starts from q_v = eps_bar_sq and takes one step per pass, so a run
    computes no step beyond the pass it reaches.  Its inputs all come from
    the dataset: lam = ``ds.snr``, c = n/p and the realised mixture
    ``EpsilonMixture.from_samples(ds.label_eps)``.  ``t_max`` and the
    finiteness of lam * lam * c are checked before any pass, and each pass
    runs the feature map unchecked; the dataset checked its confidences when
    it was built.  This is the one-column run of ``_semisupervised_columns``.

    The self-feedback removal uses the exact per-sample column norm rather
    than its expectation; the calibration trusts (lam, c) through
    the recursion instead of estimating the score SNR from data.
    """
    t_max = _check_count(t_max, "t_max")
    soft, [iterations] = _semisupervised_columns([ds], t_max)
    return _output_from_soft(soft[0], ds, iterations=iterations)


def _semisupervised_columns(datasets: list, t_max: int) -> tuple[np.ndarray, list]:
    """The semi-supervised classifier on G datasets that share their features
    and truth and differ in their confidences, run as the G columns of one
    pass loop; returns the (G, n) soft scores, row g for dataset g, and each
    column's pass count.  ``t_max`` is checked by the caller.

    Each column keeps its own realised mixture, recursion step and stop
    rule; a column that stops is final and leaves the block.  The two
    products of a pass are one matrix product pair, (V X' / n) X, on the
    block V of running columns, and the elementwise work, the denoiser and
    the per-column reductions each run once on the block.  With one column
    this is X'(X v / n) bit for bit; with more, the products sum in another
    order, about 1e-11 relative apart from the one-column run's.
    """
    first = datasets[0]
    lam = first.snr
    n = first.n
    c = n / first.p
    mixtures = [EpsilonMixture.from_samples(ds.label_eps) for ds in datasets]
    _check_gain(lam, c)
    X = first.features
    col_sq_n = np.einsum("ij,ij->j", X, X) / n

    # np.add.reduce(x, axis=1) / n is each row's np.mean bit for bit, without its overhead.
    eps = np.array([ds.label_eps for ds in datasets])
    soft = np.empty_like(eps)
    passes = [t_max] * len(datasets)
    running = list(range(len(datasets)))  # the column of each row of the block
    denoise = _posterior_mean_at(eps)
    v = eps  # never written in place
    q_v = [mixture.eps_bar_sq for mixture in mixtures]
    q_u = [0.0] * len(datasets)
    for iterations in range(1, t_max + 1):
        raw = (v @ X.T / n) @ X
        raw -= col_sq_n * v
        mean_sq = (np.add.reduce(raw * raw, axis=1) / n).tolist()
        scale, silent = [], []  # silent: the rows whose q_u is 0, where u = 0
        for row, g in enumerate(running):
            if iterations > 1:
                q_v[g] = qv_from_qu(mixtures[g], q_u[g])
            # q_v stays >= 0; the clamp at 1 is the one qu_from_qv applies.
            q_u[g] = _feature_map(lam, c, q_v[g] if q_v[g] < 1.0 else 1.0)
            if q_u[g] == 0.0:
                silent.append(row)
                scale.append(1.0)
            elif mean_sq[row] == 0.0:
                raise SimulationError("degenerate scores: zero second moment")
            else:
                scale.append(math.sqrt(mean_sq[row] / (q_u[g] * (q_u[g] + 1.0))))
        u = raw / np.array(scale)[:, None]
        if silent:
            u[silent] = 0.0
        v_new = denoise(u)
        stopped = (np.add.reduce(np.abs(v_new - v), axis=1) / n < _STOP_TOL).tolist()
        v = v_new
        if any(stopped):
            for row, g in enumerate(running):
                if stopped[row]:
                    soft[g], passes[g] = v[row], iterations
            keep = [not s for s in stopped]
            running = [g for g, kept in zip(running, keep) if kept]
            if not running:
                return soft, passes
            v = v[keep]
            denoise = _posterior_mean_at(eps[running])
    soft[running] = v
    return soft, passes


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
    if ds.n_labeled == ds.n:
        raise SimulationError("the labeling leaves no unlabeled sample to score")
    oracle = classify_oracle(ds).error_unlabeled
    sup = classify_supervised(ds).error_unlabeled
    semi = classify_semisupervised(ds, t_max=t_max).error_unlabeled
    return oracle, sup, semi


def _thread_map(fn, jobs, count: int) -> list:
    """``[fn(*job) for job in jobs]`` over an iterator of ``count`` argument
    tuples, run on a pool of min(count, usable cores) threads.

    For work whose numpy calls release the GIL.  At most one job per thread
    is in flight, and a job is taken from ``jobs`` only when it is submitted,
    so only the list of results grows with ``count``.  A failing job raises
    as in a serial loop: the first in job order.  ``concurrent.futures`` is
    imported here, as ``multiprocessing`` is in ``_replicate_workers``, to
    keep it and ``logging`` off every command's start-up.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = min(count, _usable_cores())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = deque(pool.submit(fn, *next(jobs)) for _ in range(workers))
        results = []
        while in_flight:
            results.append(in_flight.popleft().result())
            job = next(jobs, None)
            if job is not None:
                in_flight.append(pool.submit(fn, *job))
    return results


def _fresh_replicate_errors(points, reps: int, t_max: int) -> list:
    """Per point (p, n, lam, labeling, seed) of ``points``, in order, the
    list of its replicates' unlabeled-sample errors (oracle, supervised,
    semi-supervised), replicate r on a fresh draw from (seed, r).  A draw
    without an unlabeled sample, or without a labeled one (the supervised
    classifier's error), fails with ``SimulationError``.

    Replicates are independent and their numpy work releases the GIL, so the
    replicates of every point run on one ``_thread_map``, each thread
    holding one replicate; the results do not depend on the thread count,
    and a failing replicate raises first in (point, replicate) order.  Each
    stream is built when its replicate is submitted.
    """
    jobs = (
        (p, n, lam, labeling, t_max, _rep_stream(seed, r))
        for p, n, lam, labeling, seed in points
        for r in range(reps)
    )
    results = _thread_map(_fresh_replicate, jobs, len(points) * reps)
    return [results[start : start + reps] for start in range(0, len(results), reps)]


def _replicate_masks(draw, columns: list, t_max: int) -> np.ndarray:
    """The (G, n) mask of where the semi-supervised hard labels of a
    ``_base_draw`` miss the truth, row g when its first n_l samples carry
    kappa-reliable labels, for the G (n_l, kappa) pairs of ``columns``, all
    scored in one ``_semisupervised_columns`` run."""
    n = draw[1].size
    datasets = [_dataset(draw, [(n_l / n, kappa)]) for n_l, kappa in columns]
    soft, _ = _semisupervised_columns(datasets, t_max)
    return _hard_decisions(soft) != datasets[0].truth_labels


def _replicate_worker(conn, calling_end, p: int, n: int, lam: float, seed, owned: range) -> None:
    """A search worker's process: it draws its replicates ``owned`` from
    (seed, r) and keeps them until the call ends.  For each round's
    (columns, t_max) read from ``conn`` it sends back one outcome per owned
    replicate, in order: the replicate's ``_replicate_masks`` mask, or the
    exception its draw or its run raised, which ends the list.  It returns
    when it reads None, the end of the call, or when the calling process
    has died.

    ``calling_end`` is this worker's copy of the calling process's end of
    the pipe, which a fork hands it; it is closed first, so that the end
    closes when the calling process dies and ``conn`` reads EOF.  A sibling
    forked later holds a copy too and keeps it until it exits itself.
    """
    calling_end.close()
    draws, failure = [], None
    try:
        for r in owned:
            draws.append(_base_draw(p, n, lam, _rep_stream(seed, r)))
    except Exception as error:
        failure = error
    with contextlib.suppress(EOFError, BrokenPipeError):  # the calling process died
        while (job := conn.recv()) is not None:
            columns, t_max = job
            outcomes = []
            try:
                for draw in draws:
                    outcomes.append(_replicate_masks(draw, columns, t_max))
            except Exception as error:
                outcomes.append(error)
            else:
                if failure is not None:
                    outcomes.append(failure)
            conn.send(outcomes)


@contextlib.contextmanager
def _replicate_workers(p: int, n: int, lam: float, seed, reps: int):
    """W = min(reps, usable cores) search worker processes, as a list of
    (connection, process) pairs: worker k owns replicates k, k + W, k + 2W
    and so on, and draws them itself (``_replicate_worker``).

    The workers are forked where the platform offers fork and started by the
    platform's default method elsewhere; on either, no draw is pickled, and
    the calling process draws nothing.  When the ``with`` block ends, every
    worker has exited and been joined; a block that raises terminates them
    first.  ``multiprocessing`` is imported here, not at module level, to
    keep it off every command's start-up.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()  # the platform default first
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    count = min(reps, _usable_cores())
    workers = []
    try:
        for k in range(count):
            conn, end = context.Pipe()
            process = context.Process(
                target=_replicate_worker, args=(end, conn, p, n, lam, seed, range(k, reps, count))
            )
            process.start()
            end.close()  # the worker holds the only copy: its exit reads as EOF here
            workers.append((conn, process))
        yield workers
        for conn, _ in workers:
            conn.send(None)
    except BaseException:
        for _, process in workers:
            process.terminate()
        raise
    finally:
        for conn, process in workers:
            process.join()
            conn.close()


def _probe_round(workers: list, reps: int, columns: list, t_max: int) -> list:
    """Per replicate, in order, the ``_replicate_masks`` mask of ``columns``,
    from the ``_replicate_workers`` ``workers``: each is sent the columns
    once and answers for all of its replicates.  A failing replicate raises
    as in a serial loop, the first in replicate order, a failed draw
    included; a worker that exits before it answers raises ``RuntimeError``.

    Processes, not threads: only a pass's matrix products release the GIL;
    its recursion steps, one per column, and the per-pass Python work do
    not.  At ``labeled-needed``'s defaults with etas [0.02] on 2 cores (one
    BLAS thread), the command took 1.99 s with the replicates run serially,
    1.79 s on two threads and 1.25 s on two forked workers (medians of 9
    runs each, the three interleaved).  Replicates are not batched with each
    other: a 200 x 1000 matrix is 1.6 MB, and the matrix products of five
    replicates run pass by pass in lockstep took 48 ms against 45 ms run
    one replicate after another (2 MB L2 per core).  Each worker holds only
    the draws it owns, 8 MB for 5 of these replicates: on the same command
    the workers peaked at 41.8 MB and the calling process at 30.7 MB
    (``ru_maxrss``, 3 runs), where forked workers that shared every draw of
    the calling process peaked at 44.4 MB and the caller at 53.3 MB.
    """
    for conn, _ in workers:
        conn.send((columns, t_max))
    answers = []
    for k, (conn, process) in enumerate(workers):
        try:
            answers.append(conn.recv())
        except EOFError:
            process.join()
            raise RuntimeError(
                f"search worker {k} exited with code {process.exitcode} during a round"
            ) from None
    masks = []
    for r in range(reps):
        # a worker's answer ends at its first failure, which is raised here
        # before any of its later replicates is reached
        outcome = answers[r % len(workers)][r // len(workers)]
        if isinstance(outcome, BaseException):
            raise outcome
        masks.append(outcome)
    return masks


def _search(kappa: float, n_ref: int, hi: int):
    """The search for the smallest labeled count whose probe meets the
    reference, as a generator: it yields each labeled count it probes, is
    sent that probe's paired mean, and returns the count.

    Doubling from ``n_ref`` up to ``hi``, then integer bisection; each count
    is probed at most once.  The probe at n_l is the mean over replicates of
    the candidate's error minus the reference's, both on the samples from
    n_l on, which the candidate leaves unlabeled; it meets the reference at
    most zero.  At kappa = 1 the probe at ``n_ref`` would repeat the
    reference run exactly, so its paired mean is 0.0 without a run."""
    paired: dict[int, float] = {n_ref: 0.0} if kappa == 1.0 else {}

    def satisfied(n_l: int):
        if n_l not in paired:
            paired[n_l] = yield n_l
        return paired[n_l] <= 0.0

    if (yield from satisfied(n_ref)):
        lo, up = 0, n_ref
    else:
        lo = up = n_ref
        while not (yield from satisfied(up)):
            if up >= hi:
                raise SimulationError(
                    f"reference error not reached at kappa = {kappa:.6g} by any "
                    f"measurable labeled count up to {hi}"
                )
            lo, up = up, min(max(2 * up, 1), hi)
    while up - lo > 1:
        mid = (lo + up) // 2
        if (yield from satisfied(mid)):
            up = mid
        else:
            lo = mid
    return up


def _search_counts(pool, reps: int, kappas: list, n_ref: int, hi: int, t_max: int) -> list:
    """The ``_search`` count of every kappa, the searches run in rounds.

    Each round, every running search names its next labeled count, and each
    replicate scores all of the round's (n_l, kappa) probes, the reference
    (n_ref, 1) in the first round, as the columns of one classifier run.
    A search that cannot meet the reference stops the searches after it;
    those before it run to their end, and the first failure in kappa order
    raises, as searching the kappas one after another would.
    """
    searches = [_search(kappa, n_ref, hi) for kappa in kappas]
    counts: list = [None] * len(kappas)
    failure = None
    reference = None
    replies: dict = dict.fromkeys(range(len(kappas)))  # search -> its probe's paired mean
    while True:
        probes = {}  # search -> the labeled count it waits on
        for i, reply in replies.items():
            try:
                probes[i] = searches[i].send(reply)
            except StopIteration as done:
                counts[i] = done.value
            except SimulationError as error:
                failure = error
                break
        if not probes:
            break
        columns = [(n_l, kappas[i]) for i, n_l in probes.items()]
        if reference is None:
            columns.insert(0, (n_ref, 1.0))
        columns = list(dict.fromkeys(columns))
        masks = _probe_round(pool, reps, columns, t_max)
        if reference is None:
            reference = [mask[0] for mask in masks]
        replies = {}
        for i, n_l in probes.items():
            g = columns.index((n_l, kappas[i]))
            replies[i] = float(np.mean([
                float(np.mean(mask[g, n_l:])) - float(np.mean(ref[n_l:]))
                for mask, ref in zip(masks, reference)
            ]))
    if failure is not None:
        raise failure
    return counts


def labeled_needed_empirical(
    p: int, n: int, lam: float, eta: float, kappas, seed, reps: int = 10, t_max: int = 40
) -> list[int]:
    """Smallest labeled count at each reliability in ``kappas`` whose
    semi-supervised error matches the eta-certainty reference, by search.

    The reference labels a fraction eta of the samples exactly (kappa = 1).
    For each kappa, doubling then integer bisection runs over the
    monotone-in-expectation error curve; every probe is averaged over
    ``reps`` replicate streams derived from (seed, r).  Noise is suppressed
    with common random numbers: a probe meets the reference when its paired
    error difference to the reference run, on the candidate's unlabeled
    subset of the same replicates, is at most zero, so dataset-level
    fluctuations cancel.

    One call does the whole study for one eta.  Every argument, the seed
    for bools only, is checked before any draw.  Then W = min(reps, usable
    cores) worker processes start (``_replicate_workers``), and worker k
    owns replicates k, k + W, k + 2W and so on.  Each replicate's random
    numbers (center, truth, noise and one reliability uniform per sample)
    are drawn once, in the worker that owns it, and kept there for the
    call; the calling process draws nothing.  The reference runs once, and
    a probe builds its labels from the stored uniforms, so each probe sees
    the dataset ``generate_dataset`` draws from (seed, r) under its
    labeling.  The kappas are searched together, in rounds
    (``_search_counts``): each replicate scores a round's probes, the
    reference in the first round, as the columns of one classifier run, and
    the counts and the error raised are those of searching one kappa after
    another, a failed draw counting as its replicate's failure.  The results
    do not depend on the worker count.  Every worker has exited and been
    joined when the call returns or raises, and the draws go with them.

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

    with _replicate_workers(p, n, lam, seed, reps) as workers:
        return _search_counts(workers, reps, kappas, n_ref, hi, t_max)
