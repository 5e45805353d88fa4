"""Desk-scale Monte Carlo verification of the overlap theory.

Synthetic two-class Gaussian data with per-sample label confidences, the
scalar-channel alignment check, and three classifiers to confront the theory:

- ``classify_oracle``          knows the class centers (error Q(sqrt(lam))),
- ``classify_supervised``      plug-in direction from labeled samples only,
- ``classify_semisupervised``  iterative posterior-mean scheme whose score
                               calibration follows the overlap recursion on
                               the dataset's realised mixture, built lazily,
                               one step per pass reached, with the kernel's
                               one denoiser and the overlaps' one feature
                               map, both unchecked.

The pass loop itself (``_semisupervised_columns``) reads each column's
calibration from a given q_u schedule and runs no recursion.

``labeled_needed_empirical`` runs the labeled-count search for one eta: how
many kappa-reliable labels the semi-supervised classifier needs to match an
eta fraction of certain ones.  Every kappa is searched in rounds, each
replicate scoring a round's probes, the reference in the first, as the
columns of one classifier run.  The calling process builds each probe's q_u
schedule once per round, from the nominal lam, c = n/p and the intended
mixture, and sends it with the probe, so the replicates' runs do only the
matrix products, the denoiser and the stop rule.

Every Monte Carlo command runs its units on one executor, ``_owned_rounds``:
min(units, usable cores) participants, each building and running the units
it owns, one at a time, and keeping what it built for the call.  The search
is a call whose units are the replicates, each drawn once by its owner and
kept for every round, with the calling process owning none.  The
fresh-draw replicates of the ``simulate`` and ``reduction`` commands, every
point's at once (``_fresh_replicate_errors``), and the cells of
``channel-check`` are one round of it (``_owned_map``) in which the calling
process owns a share.  The workers are joined before the call ends, and
nothing is kept.

Randomness.  All draws use ``numpy.random.default_rng`` with explicit
seeding; replicate r of a study derives its stream from the seed sequence
``(seed, r)``, so replicates are independent and every run is reproducible
bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import _check_count, _check_eps, _check_nonneg, _check_real, _check_seed
from .kernel import _check_sequence, _check_unit, _posterior_mean_at, _real_array, posterior_mean
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
    """A classifier's error rate on the unlabeled samples, None when the
    dataset has none, and the pass count of an iterative classifier."""

    error_unlabeled: Optional[float]
    iterations: Optional[int] = None


def _misses(scores: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Where the hard decisions, +1 where a score is >= 0 and -1 elsewhere
    (ties to +1, nan to -1), miss the ±1 ``truth``; broadcasts."""
    return (scores >= 0.0) != (truth > 0)


def _unlabeled_error(scores: np.ndarray, ds: Dataset) -> Optional[float]:
    unlabeled = ds.label_eps == 0.0
    wrong = _misses(scores[unlabeled], ds.truth_labels[unlabeled])
    return float(np.mean(wrong)) if wrong.size else None


def _check_kappa(kappa) -> float:
    """A labeler's reliability for a draw, in (0.5, 1]; at 0.5 a label is noise."""
    kappa = _check_real(kappa, "kappa")
    if not 0.5 < kappa <= 1.0:  # nan fails it too
        raise ValueError("kappa must lie in (0.5, 1]")
    return kappa


def _check_labeling(labeling) -> list:
    """The (fraction, kappa) blocks as float pairs, checked."""
    blocks = []
    for index, block in enumerate(_check_sequence(labeling, "labeling", "(fraction, kappa) pairs")):
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


def _intended_mixture(blocks) -> EpsilonMixture:
    """Theory mixture of checked labeling ``blocks``: eps = 2 kappa - 1 at
    each block's fraction, the rest unlabeled."""
    atoms = [(2.0 * kappa - 1.0, frac) for frac, kappa in blocks]
    atoms.append((0.0, 1.0 - sum(frac for frac, _ in blocks)))
    return EpsilonMixture(atoms=tuple(atoms))


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


def _block_ends(n: int, blocks) -> list:
    """Where each of the checked label ``blocks`` ends among n samples: block
    i at min(round((f_1 + ... + f_i) n), n), the fractions summed in order.
    The last end is the labeled count, the same for every draw."""
    ends, cumulative = [], 0.0
    for frac, _ in blocks:
        cumulative += frac
        ends.append(min(round(cumulative * n), n))
    return ends


def _label_eps(draw, blocks) -> np.ndarray:
    """The signed confidences of a ``_base_draw`` under the checked label
    ``blocks``."""
    _, y, _, uniforms = draw
    eps = np.zeros(y.size, dtype=float)
    start = 0
    for (_, kappa), end in zip(blocks, _block_ends(y.size, blocks)):
        sl = slice(start, end)
        report = np.where(uniforms[sl] < kappa, y[sl], -y[sl])
        eps[sl] = report * (2.0 * kappa - 1.0)
        start = end
    return eps


def _dataset(draw, blocks) -> Dataset:
    """The dataset of a ``_base_draw`` under the checked label ``blocks``."""
    mu, y, features, _ = draw
    return Dataset(features, y, _label_eps(draw, blocks), mu)


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
    return ClassifierOutput(_unlabeled_error(ds.features.T @ ds.truth_mean, ds))


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
    return ClassifierOutput(_unlabeled_error(ds.features.T @ direction, ds))


# The semi-supervised passes stop once the mean absolute update falls below this.
_STOP_TOL = 1e-6


def _calibration(lam: float, c: float, mixture: EpsilonMixture):
    """The score SNRs q_u^1, q_u^2, ... of the overlap recursion
    q_u = qu_from_qv(lam, c, q_v), q_v = qv_from_qu(mixture, q_u) from
    q_v = eps_bar_sq, as a generator: step t runs only when q_u^t is asked
    for, so t values cost t - 1 label-map calls.  (lam, c) passed
    ``_check_gain``; the feature map runs unchecked."""
    q_v = mixture.eps_bar_sq
    while True:
        # q_v stays >= 0; the clamp at 1 is the one qu_from_qv applies.
        q_u = _feature_map(lam, c, q_v if q_v < 1.0 else 1.0)
        yield q_u
        q_v = qv_from_qu(mixture, q_u)


def classify_semisupervised(ds: Dataset, t_max: int = 50) -> ClassifierOutput:
    """Iterative posterior-mean classifier calibrated by the overlap maps.

    Starting from the prior means v = eps, each pass forms the plug-in
    direction m = X v / n, scores every sample with its own contribution
    removed (s_i = x_i' m - ||x_i||^2 v_i / n), rescales the scores to the
    Gaussian-channel law u ~ q_u y + sqrt(q_u) Z predicted by the overlap
    recursion, and denoises with the posterior mean.  Stops at ``t_max``
    passes or when the mean absolute update falls below 1e-6.

    The recursion q_u = qu_from_qv(lam, c, q_v), q_v = qv_from_qu(mixture,
    q_u) starts from q_v = eps_bar_sq; its schedule is built lazily, one
    step per pass reached, so a run computes no step beyond the pass it
    reaches.  Its inputs all come from the dataset: lam = ``ds.snr``,
    c = n/p and the realised mixture
    ``EpsilonMixture.from_samples(ds.label_eps)``.  ``t_max`` and the
    finiteness of lam * lam * c are checked before any pass, and each step
    runs the feature map unchecked; the dataset checked its confidences when
    it was built.  This is the one-column run of ``_semisupervised_columns``.

    The self-feedback removal uses the exact per-sample column norm rather
    than its expectation; the calibration trusts (lam, c) through
    the recursion instead of estimating the score SNR from data.
    """
    t_max = _check_count(t_max, "t_max")
    lam, c = ds.snr, ds.n / ds.p
    _check_gain(lam, c)
    schedule = _calibration(lam, c, EpsilonMixture.from_samples(ds.label_eps))
    eps = ds.label_eps[None]
    soft, [iterations] = _semisupervised_columns(ds.features, eps, [schedule], t_max)
    return ClassifierOutput(_unlabeled_error(soft[0], ds), iterations)


def _semisupervised_columns(X, eps, schedules: list, t_max: int) -> tuple[np.ndarray, list]:
    """The semi-supervised classifier on the p x n features ``X`` under the G
    rows of the (G, n) confidence block ``eps``, checked by the caller, run
    as the G columns of one pass loop; returns the (G, n) soft scores, row g
    for confidences g, and each column's pass count.  ``t_max`` is checked
    by the caller.

    Column g reads pass t's score SNR q_u^t as the t-th value of
    ``schedules[g]``, an iterable of at least ``t_max`` values or an
    endless one such as ``_calibration``'s, and takes one value per pass
    it runs; the loop itself builds no mixture and runs no recursion.  Each
    column keeps its own stop rule; a column that stops is final and leaves
    the block.  The two products of a pass are one matrix product pair,
    (V X' / n) X, on the block V of running columns, and the elementwise
    work, the denoiser and the per-column reductions each run once on the
    block.  With one column this is X'(X v / n) bit for bit; with more, the
    products sum in another order, about 1e-11 relative apart from the
    one-column run's.
    """
    n = X.shape[1]
    col_sq_n = np.einsum("ij,ij->j", X, X) / n
    schedules = [iter(schedule) for schedule in schedules]

    # np.add.reduce(x, axis=1) / n is each row's np.mean bit for bit, without its overhead.
    soft = np.empty_like(eps)
    passes = [t_max] * len(eps)
    running = list(range(len(eps)))  # the column of each row of the block
    denoise = _posterior_mean_at(eps)
    v = eps  # never written in place
    for iterations in range(1, t_max + 1):
        raw = (v @ X.T / n) @ X
        raw -= col_sq_n * v
        mean_sq = (np.add.reduce(raw * raw, axis=1) / n).tolist()
        scale, silent = [], []  # silent: the rows whose q_u is 0, where u = 0
        for row, g in enumerate(running):
            q_u = next(schedules[g])
            if q_u == 0.0:
                silent.append(row)
                scale.append(1.0)
            elif mean_sq[row] == 0.0:
                raise SimulationError("degenerate scores: zero second moment")
            else:
                scale.append(math.sqrt(mean_sq[row] / (q_u * (q_u + 1.0))))
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
    oracle = classify_oracle(ds).error_unlabeled
    sup = classify_supervised(ds).error_unlabeled
    semi = classify_semisupervised(ds, t_max=t_max).error_unlabeled
    return oracle, sup, semi


def _owned_worker(conn, calling_end, build, owned: range) -> None:
    """A worker process's body, for the units ``owned`` of an
    ``_owned_rounds`` call.  For each job it reads from ``conn`` it sends,
    for its units in order, ``job(state)``, each as soon as it has it, or the
    exception that building or running a unit raised, which ends its round.
    A unit's state is ``build(index)``, built when a job first reaches the
    unit and kept until the call ends.  It returns when it reads None, the
    end of the call.

    ``calling_end`` is this worker's copy of the calling process's end of
    the pipe, which a fork hands it; it is closed first, so that the end
    closes when the calling process dies.  ``conn`` then reads EOF or a send
    raises a ``ConnectionError``, a broken pipe or a reset, and the worker
    returns without a traceback.  A sibling forked later holds a copy too
    and keeps it until it exits itself.
    """
    calling_end.close()
    states = {}
    with contextlib.suppress(EOFError, ConnectionError):  # the calling process died
        while (job := conn.recv()) is not None:
            for index in owned:
                try:
                    if index not in states:
                        states[index] = build(index)
                    outcome = job(states[index])
                except Exception as error:
                    conn.send(error)
                    break
                conn.send(outcome)


@contextlib.contextmanager
def _owned_rounds(build, count: int, caller_owns: bool):
    """Yields ``run(job)``, which returns ``[job(state_i) for i in
    range(count)]``.  ``state_i = build(i)`` is built once, when a job first
    reaches unit i, by the participant that owns the unit, and is kept there
    until the ``with`` block ends.

    There are W = min(count, usable cores) participants, and participant k
    owns units k, k + W, k + 2W and so on.  With ``caller_owns`` the calling
    process is participant 0 and W - 1 worker processes are the rest;
    without it all W are workers, and the calling process builds and runs
    no unit.  ``run`` sends each worker the job; a worker runs its units in
    order and sends each outcome as soon as it has it (``_owned_worker``).
    The calling process runs its own units as their turn comes and takes
    the workers' outcomes in unit order between them.  The first failure in
    unit order raises, with its own type and message, as in a serial loop,
    whichever participant failed first in time; it does not wait for any
    later unit.  A worker that exits before it answers raises
    ``RuntimeError``.  A raising round leaves the workers mid-round, so its
    exception must end the block, which terminates them.  A block that ends
    without raising sends every worker None, the end of the call.  Every
    worker has exited and been joined when the block ends.

    The workers are forked where the platform offers fork and started by the
    platform's default method elsewhere, where ``build`` and each job are
    pickled: a ``functools.partial`` of a module-level function on small
    arguments.  A job is pickled once per worker and round whatever the
    start method.  ``multiprocessing`` is imported here, not at module
    level, to keep it off every command's start-up.  So is ``numpy.random``,
    just before the workers start: its import also loads ``secrets``,
    ``hashlib`` and OpenSSL, about 5 MB that each forked worker inherits
    from the calling process instead of loading on its first draw, while a
    command that never forks does not load it at all.  On the four Monte
    Carlo commands' defaults (``labeled-needed`` with etas [0.02]) this took
    each worker's peak about 5 MB lower (``VmHWM``, 2 cores, 3 runs).

    Processes, not threads.  Threads would keep every unit's state in one
    process, and the largest process is the command's peak memory: on
    ``labeled-needed``'s defaults with etas [0.02], on 2 cores, workers that
    each hold the 5 draws they own (8 MB) peaked at 35.9 MB and the calling
    process at 37.2 MB, where every draw in the calling process, shared with
    forked workers, peaked at 53.3 MB (peak resident sets, 3 runs).  And
    threads would gain no time to pay for it: only a pass's matrix products
    release the GIL, and one 6-column search round on the 10 replicates
    took 84 ms on two threads and 83 ms on two processes, in process.  Units
    are not batched with each other: a search replicate's 200 x 1000 matrix
    is 1.6 MB, and the matrix products of five replicates run pass by pass
    in lockstep took 48 ms against 45 ms run one replicate after another
    (2 MB L2 per core).
    """
    # caller_owns: the Monte Carlo map's calling process must run a share,
    # since a traced run only sees the calling process's spans.  The
    # search's must not: on the same command a calling process that owned
    # share 0 peaked at 46.5 MB against 36.0 MB for its worker (VmHWM,
    # 2 runs), most likely because a forked child does not count the
    # parent's file-backed pages until it touches them.
    import multiprocessing

    np.random.default_rng  # loads numpy.random for the workers to inherit
    methods = multiprocessing.get_all_start_methods()  # the platform default first
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    width = min(count, _usable_cores())
    first = int(caller_owns)
    workers, states = [], {}  # states: the calling process's own units
    try:
        for k in range(first, width):
            conn, end = context.Pipe()
            owned = range(k, count, width)
            process = context.Process(target=_owned_worker, args=(end, conn, build, owned))
            process.start()
            end.close()  # the worker holds the only copy: its exit reads as EOF here
            workers.append((conn, process))
        owners = [None] * first + workers  # participant k's (connection, process)

        def run(job) -> list:
            for conn, _ in workers:
                conn.send(job)
            results = []
            for index in range(count):
                k = index % width
                if owners[k] is None:  # the calling process's own unit
                    if index not in states:
                        states[index] = build(index)
                    results.append(job(states[index]))
                    continue
                conn, process = owners[k]
                try:
                    outcome = conn.recv()
                except (EOFError, ConnectionError):  # a reset if it left a message unread
                    process.join()
                    raise RuntimeError(
                        f"worker {k} exited with code {process.exitcode} before it answered"
                    ) from None
                if isinstance(outcome, BaseException):
                    raise outcome
                results.append(outcome)
            return results

        yield run
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


def _owned_map(unit, count: int) -> list:
    """``[unit(index) for index in range(count)]`` as one ``_owned_rounds``
    round in which each unit's state is its index and the calling process
    owns a share.  Each participant builds a unit from its index only when
    it reaches it, so no list of units is made."""
    with _owned_rounds(int, count, caller_owns=True) as run:
        return run(unit)


def _fresh_replicate_unit(points, reps: int, t_max: int, index: int) -> tuple:
    """Unit ``index`` of ``_fresh_replicate_errors``: the errors of
    replicate index % reps of point index // reps."""
    point, r = divmod(index, reps)
    p, n, lam, labeling, seed = points[point]
    return _fresh_replicate(p, n, lam, labeling, t_max, _rep_stream(seed, r))


def _fresh_replicate_errors(points, reps: int, t_max: int) -> list:
    """Per point (p, n, lam, labeling, seed) of ``points``, in order, the
    list of its replicates' unlabeled-sample errors (oracle, supervised,
    semi-supervised), replicate r on a fresh draw from (seed, r).

    ``t_max`` is checked first, then each point in order, before any
    participant starts: its seed, then p, n, lam and the labeling as
    ``generate_dataset`` checks them.  The labeled count depends only on n
    and the labeling (``_block_ends``), so a point whose replicates would
    have no unlabeled sample to score, or no labeled one for the supervised
    classifier, fails here with ``SimulationError``, in that order.

    The (point, replicate) pairs of every point are the units of one
    ``_owned_map``, in that order: each participant draws and scores one
    replicate at a time, building its stream when it reaches it.  The
    results do not depend on the participant count, and a failing replicate
    raises first in (point, replicate) order.
    """
    t_max = _check_count(t_max, "t_max")
    for p, n, lam, labeling, seed in points:
        _check_seed(seed)
        p, n, lam = _check_count(p, "p"), _check_count(n, "n"), _check_nonneg(lam, "lam")
        ends = _block_ends(n, _check_labeling(labeling))
        n_labeled = ends[-1] if ends else 0
        if n_labeled == n:
            raise SimulationError("the labeling leaves no unlabeled sample to score")
        if n_labeled == 0:
            raise SimulationError("supervised classifier needs labeled samples")
    unit = functools.partial(_fresh_replicate_unit, points, reps, t_max)
    results = _owned_map(unit, len(points) * reps)
    return [results[start : start + reps] for start in range(0, len(results), reps)]


def _replicate_masks(draw, columns: list, schedules: list) -> np.ndarray:
    """The (G, n) mask of where the semi-supervised hard labels of a
    ``_base_draw`` miss the truth, row g when its first n_l samples carry
    kappa-reliable labels, for the G (n_l, kappa) pairs of ``columns``, all
    scored in one ``_semisupervised_columns`` run on the draw's arrays; no
    ``Dataset`` is built.  Column g is calibrated by ``schedules[g]``, its
    q_u^1 ... q_u^t_max; their common length is the pass cap t_max."""
    _, y, features, _ = draw
    eps = np.array([_label_eps(draw, [(n_l / y.size, kappa)]) for n_l, kappa in columns])
    soft, _ = _semisupervised_columns(features, eps, schedules, len(schedules[0]))
    return _misses(soft, y)


def _replicate_draw(p: int, n: int, lam: float, seed, r: int):
    """Replicate r's ``_base_draw``, from the stream (seed, r)."""
    return _base_draw(p, n, lam, _rep_stream(seed, r))


def _probe_schedule(lam: float, c: float, frac: float, kappa: float, t_max: int) -> list:
    """The q_u^1 ... q_u^t_max that calibrate a search probe labeling a
    fraction ``frac`` of the samples at reliability ``kappa``: the recursion
    at the nominal lam and c on the intended mixture
    {(2 kappa - 1, frac), (0, 1 - frac)}, t_max - 1 label-map calls.

    A probe's dataset would give its realised lam = ``ds.snr`` and mixture
    instead, which differ from these by rounding: over the 14 rounds of
    ``labeled-needed``'s defaults with etas [0.02], on all 10 replicates,
    the two schedules were within 1.7e-15 relative, and no hard label or
    pass count differed."""
    mixture = _intended_mixture([(frac, kappa)])
    return [q_u for _, q_u in zip(range(t_max), _calibration(lam, c, mixture))]


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


def _search_counts(run, kappas: list, n_ref: int, hi: int, schedule) -> list:
    """The ``_search`` count of every kappa, the searches run in rounds.

    Each round, every running search names its next labeled count, and each
    replicate scores all of the round's (n_l, kappa) probes, the reference
    (n_ref, 1) in the first round, as the columns of one classifier run:
    the round is ``run(job)`` of ``_owned_rounds``, with ``job`` the
    ``_replicate_masks`` of its columns, and returns one mask per replicate.
    Each distinct column's calibration, ``schedule(n_l, kappa)``, is built
    once per round here, in the calling process, and sent with the job.
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
        schedules = [schedule(*column) for column in columns]
        masks = run(functools.partial(_replicate_masks, columns=columns, schedules=schedules))
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
    for bools only, and the finiteness of lam * lam * c at c = n/p are
    checked before any draw or worker.  Then the replicates are the units of
    one ``_owned_rounds`` call in which the calling process owns none: W =
    min(reps, usable cores) worker processes, worker k owning replicates k,
    k + W, k + 2W and so on.  Each replicate's random numbers (center,
    truth, noise and one reliability uniform per sample) are drawn once
    (``_replicate_draw``), in the worker that owns it, when the first round
    reaches it, and kept there for the call; the calling process draws
    nothing.  The reference runs once, and a probe builds its labels from
    the stored uniforms, so each probe sees the dataset ``generate_dataset``
    draws from (seed, r) under its labeling.  The kappas are searched
    together, in rounds (``_search_counts``): each replicate scores a
    round's probes, the reference in the first round, as the columns of one
    classifier run, and the counts and the error raised are those of
    searching one kappa after another, a failed draw counting as its
    replicate's failure; a round raises at its first failing replicate
    without waiting for the later ones.  Each probe's calibration
    (``_probe_schedule``) is built once per round in the calling process,
    from the nominal lam, c = n/p and the intended mixture {(2 kappa - 1,
    n_l/n), (0, 1 - n_l/n)}, and sent with its column, so the workers run
    no recursion; a probe's own dataset would give the same schedule up to
    rounding.  The results do not depend on the worker count.  Every worker
    has exited and been joined when the call returns or raises, and the
    draws go with them.

    Infeasible reliabilities ((2 kappa - 1)^2 < eta) raise
    ``InfeasibilityError``; the search fails with ``SimulationError`` if
    even the largest measurable labeled count (at least one in twenty
    samples stays unlabeled for evaluation) misses the reference.  Returns
    the counts in the order of ``kappas``.
    """
    kappas = [_check_kappa(k) for k in _check_sequence(kappas, "kappas", "reliabilities")]
    if not kappas:
        raise ValueError("kappas must not be empty")
    p, n, lam = _check_count(p, "p"), _check_count(n, "n"), _check_nonneg(lam, "lam")
    c = n / p
    _check_gain(lam, c)
    for kappa in kappas:
        labeled_needed(eta, kappa, n)  # eta's range, and each kappa's feasibility
    reps = _check_count(reps, "reps")
    t_max = _check_count(t_max, "t_max")
    _check_seed(seed)
    n_ref = int(round(labeled_needed(eta, 1.0, n)))  # eta n, the reference's count
    hi = n - max(1, int(round(0.05 * n)))
    if n_ref > hi:
        raise SimulationError("reference labeled count leaves too few samples to evaluate")

    def schedule(n_l: int, kappa: float) -> list:
        return _probe_schedule(lam, c, n_l / n, kappa, t_max)

    draw = functools.partial(_replicate_draw, p, n, lam, seed)
    with _owned_rounds(draw, reps, caller_owns=False) as run:
        return _search_counts(run, kappas, n_ref, hi, schedule)
