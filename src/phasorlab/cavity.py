"""Thermalization of harmonic mode families under wall jitter.

A mode family is the harmonic ladder {f, 2f, 3f, ...} with exactly one
member energized at a time; wall displacements move the family between
adjacent members (one antinode at a time), so the occupancy performs a
+-1 Metropolis walk with stationary weights e^{-n x}, x = hf/k_B T.  The
equilibrium mean energy then reproduces the Planck form
hf / (e^{hf/k_B T} - 1), with the antinodal lobe energy h*f independent
of the wavelength.  The law depends on f and T only through x, so the
engine takes x alone and gives energies in units of k_B T, where the lobe
energy is x.  ``_up_word`` checks a walk's ratio and gives the kernel its bound.

Every step takes one uniform u: u < q/2 moves up, u >= 1/2 moves down
(refused at n = 0), anything else stays, with q = e^{-x}.  One
kernel runs a block of chains side by side through the reflected-walk
(Lindley) recursion and adds the kept steps to exact integer tallies; the
tests hold it step for step to the scalar move looped over the same
uniforms.  Every chain starts at n = 0.  ``equilibrate`` is a one-row
block that also keeps its chain; ``spectrum_sweep`` runs its chains in
blocks, one after another on the calling thread, within O(CHUNK) memory.
The checks of the stationary law (flow ratios and a chi-square fit) are
test oracles, and not part of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .seeding import derive_rng

# steps in a sweep's work buffers, shared by a block's chains: O(CHUNK) memory, not O(steps)
CHUNK = 2 ** 16
# steps in a chunk of the kernel's scans: prefix sums and minima within +-64 fit int8, and
# occupancies within 128 of the chunk's floor a byte
SCAN_STEPS = 64
_SCAN_SHIFTS = tuple(2 ** k for k in range(SCAN_STEPS.bit_length() - 1))  # 1, 2, ..., 32
# Generator.random takes u = (w >> 11) 2^-53 from a Philox word w, so u >= 1/2 exactly when
# w >= 2^63
_DOWN_WORD = np.uint64(2 ** 63)
# a sweep runs at most this many steps over all its chains (about 8 s at 7-8 ns/step)
MAX_SWEEP_STEPS = 10 ** 9


def _up_word(x: float) -> int:
    """The bound below which a Philox word w moves the walk at ratio x = hf/k_B T up.

    A step moves up when its uniform u < fl(q/2), q = e^{-x}.  ``Generator.random``
    takes u = k 2^-53 from w, with k = w >> 11, so u < h exactly when k < ceil(h 2^53),
    that is w < ceil(h 2^53) 2^11; h 2^53 is exact.  A ratio that is NaN, not
    positive or infinite is refused, and so is one whose bound reaches the down
    bound 2^63: there q >= 1 - 2^-53, the walk moves up exactly as often as down
    and has no equilibrium.  Where exp rounds correctly that band is
    x <= 1.5 2^-53 (1.665e-16), every subnormal x included.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"hf/k_B T must be positive and finite, got {float(x)!r}")
    word = math.ceil(math.ldexp(0.5 * math.exp(-x), 53)) << 11
    if word >= _DOWN_WORD:
        raise ValueError(f"hf/k_B T = {float(x)!r} is too small: e^-x rounds to within 2^-53 of 1,"
                         " so the walk moves up as often as down and has no equilibrium")
    return word


def planck_energy(x: float) -> float:
    """Closed-form equilibrium energy x / (e^x - 1) in units of k_B T, by ``math.expm1``.

    Where e^x overflows it is x e^{-x}, as two half-exponent factors that
    keep its ulps, and 0 only where that product underflows.  A ratio that
    is NaN, not positive or infinite is refused; in the band where
    ``_up_word`` refuses a walk, the value is 1.0.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"hf/k_B T must be positive and finite, got {float(x)!r}")
    try:
        return x / math.expm1(x)
    except OverflowError:
        half = math.exp(-x / 2.0)
        return x * half * half


@dataclass(frozen=True)
class ChainStatistics:
    """The kept steps of the chain ``equilibrate`` runs, their ``np.bincount`` and mean energy."""

    steps: int
    occupancies: np.ndarray
    occupancy_histogram: np.ndarray
    mean_energy: float


class _ChainBuffers:
    """Work arrays of a block of up to ``chains`` chains, ``width`` steps a segment: 6.5 B a step.

    Each chain's up and down flags, in step order and padded with stays to whole chunks of
    ``SCAN_STEPS``, 2 B a step; the up flags then hold the int8 increments.  Three
    chunk-major int8 scan arrays, one column per chunk, 4.5 B a step: each has
    ``SCAN_STEPS // 2`` rows of zeros above it, which the shifted operand of a scan
    pass reads.  A segment's raw words, 8 B a step of one chain, come and go per chain.
    """

    def __init__(self, chains: int, width: int):
        chunks = -(-width // SCAN_STEPS)
        self.width = width
        self.flags = np.zeros((2, chains, chunks * SCAN_STEPS), dtype=bool)
        self.scan = np.zeros((3, SCAN_STEPS // 2 + SCAN_STEPS, chains * chunks), dtype=np.int8)
        self.kept = None  # the last kept segment's occupancies, lifts and length (_run_chains)

    def walk(self) -> np.ndarray:
        """The occupancies of the last kept segment, one row per chain in step order."""
        occupancies, lift, steps = self.kept
        chains, chunks = lift.shape
        walk = np.empty((chains, chunks, SCAN_STEPS), dtype=np.int64)
        np.add(occupancies.reshape(SCAN_STEPS, chains, chunks).transpose(1, 2, 0),
               lift[:, :, None], out=walk)
        return walk.reshape(chains, chunks * SCAN_STEPS)[:, :steps]


def _chunk_scan(op: np.ufunc, scan: np.ndarray, order: Sequence[int], columns: int) -> np.ndarray:
    """Inclusive scan by ``op`` down the chunks of ``scan[order[0]]``, the first ``columns``.

    Hillis & Steele: pass k combines each row with the one 2^k above it, from
    ``scan[order[k]]`` into ``scan[order[k + 1]]``, and the last array holds the scan.
    A row less than 2^k from the top combines with a head row of zeros, which
    leaves a prefix sum as it is and floors a running minimum at 0.
    """
    head = SCAN_STEPS // 2
    for shift, src, dst in zip(_SCAN_SHIFTS, order, order[1:]):
        op(scan[src, head:, :columns], scan[src, head - shift:head - shift + SCAN_STEPS, :columns],
           out=scan[dst, head:, :columns])
    return scan[order[-1], head:, :columns]


def _kept_steps(steps: int, burn_in: int) -> int:
    if burn_in < 0 or steps <= burn_in:
        raise ValueError("need steps > burn_in >= 0")
    return steps - burn_in


class _ChainSums(NamedTuple):
    """Exact integer tallies of a block of chains, one entry or row per chain."""

    total: np.ndarray    # the sum of the kept occupancies
    batches: np.ndarray  # sums over min(32, kept) equal batches of the kept steps
    moves: np.ndarray    # accepted moves over all the steps, burn-in included


def _run_chains(up_words: Sequence[int], n0: Sequence[int], steps: int, burn_in: int,
                rngs: Sequence[np.random.Generator], buf: _ChainBuffers) -> _ChainSums:
    """Chains side by side: chain c walks from n0[c] on rngs[c]'s raw words.

    One loop runs the block in segments of ``buf.width`` steps, cut at
    ``burn_in``; chains that share a generator take its draws in chain order.
    Each step takes the 64-bit word ``Generator.random`` would turn into its
    uniform u: it moves up below up_words[c], the chain's ``_up_word``
    (u < q/2), and down from 2^63 (u >= 1/2).  The increments are copied
    once into chunk-major order, and ``_chunk_scan`` gives each chunk's
    prefix sums P and running minima m.
    Across chunks, in int64, the offset O of a chunk is the sum of the chunks
    before it and the floor G the least of -n and their minima, n the occupancy
    before the segment: the reflected-walk (Lindley) recursion n_t = S_t -
    min(-n, min_{j<=t} S_j) makes the occupancy P - min(G - O, m), and each -1
    refused at the floor lowers G one below -n.  As G - O <= 0, the floor of m
    at 0 that ``_chunk_scan`` may add changes nothing.  |P| and |m| are at most
    ``SCAN_STEPS``, so a G - O further below is clipped to -SCAN_STEPS and the
    difference added back per chunk, and the occupancies stay within a byte.
    A burn-in segment keeps only the last occupancy and the moves, and needs no
    running minima; a kept segment adds its chunk sums, and partial chunk sums
    at the batch edges, to the integer tallies, so they do not depend on the
    cuts.  ``buf.walk()`` gives back the last kept segment.
    """
    chains, width = len(rngs), buf.width
    n_batches = min(32, steps - burn_in)
    batch_len = (steps - burn_in) // n_batches
    last = np.array(n0, dtype=np.int64)
    total, moves = np.zeros((2, chains), dtype=np.int64)
    batches = np.zeros((chains, n_batches), dtype=np.int64)
    cuts = [*range(0, burn_in, width), *range(burn_in, steps, width), steps]
    for start, end in zip(cuts, cuts[1:]):
        length, kept = end - start, start >= burn_in
        chunks = -(-length // SCAN_STEPS)
        columns = chains * chunks
        up, down = buf.flags[:, :chains, :chunks * SCAN_STEPS]
        for row, rng, bound in zip(range(chains), rngs, up_words):
            words = rng.bit_generator.random_raw(length)
            np.less(words, bound, out=up[row, :length])
            np.greater_equal(words, _DOWN_WORD, out=down[row, :length])
        up[:, length:] = down[:, length:] = False
        increments = np.subtract(up.view(np.int8), down.view(np.int8), out=up.view(np.int8))
        moves += [np.count_nonzero(row) for row in increments]
        np.copyto(buf.scan[0, SCAN_STEPS // 2:, :columns].reshape(SCAN_STEPS, chains, chunks),
                  increments.reshape(chains, chunks, SCAN_STEPS).transpose(2, 0, 1))
        p = _chunk_scan(np.add, buf.scan, (0, 1, 0, 1, 0, 1, 0), columns)  # back in scan[0]
        if kept:  # from scan[0], through scan[1] and scan[2], so P stays
            m = _chunk_scan(np.minimum, buf.scan, (0, 1, 2, 1, 2, 1, 2), columns)
        ends = np.cumsum(p[-1].reshape(chains, chunks), axis=1, dtype=np.int64)
        offsets = ends - p[-1].reshape(chains, chunks)
        floors = np.empty((chains, chunks + 1), dtype=np.int64)
        floors[:, 0] = -last
        np.add(offsets, (m[-1] if kept else p.min(axis=0)).reshape(chains, chunks),
               out=floors[:, 1:])
        np.minimum.accumulate(floors, axis=1, out=floors)
        moves -= -last - floors[:, -1]
        last = ends[:, -1] - floors[:, -1]
        if kept:
            gap = floors[:, :-1] - offsets
            clipped = np.maximum(gap, -SCAN_STEPS)
            lift = clipped - gap
            np.minimum(m, clipped.astype(np.int8).reshape(columns), out=m)
            occupancies = np.subtract(p, m, out=m).view(np.uint8)  # 0 to 2 SCAN_STEPS
            chunk_sums = np.add.reduce(occupancies, axis=0, dtype=np.uint16).reshape(chains, chunks)
            running = np.cumsum(chunk_sums + SCAN_STEPS * lift, axis=1)  # to each chunk's end
            # the stays that pad the last chunk repeat the last occupancy
            total += running[:, -1] - (chunks * SCAN_STEPS - length) * last
            i, j = start - burn_in, min(end - burn_in, n_batches * batch_len)  # kept indices
            if i < j:  # the segment reaches into the batches
                # the sum up to each batch edge: to the end of its chunk, less the chunk's rest
                at = np.append(np.maximum(np.arange(i - i % batch_len, j, batch_len) - i, 0), j - i)
                chunk = np.minimum(at // SCAN_STEPS, chunks - 1)
                into = at - SCAN_STEPS * chunk
                rest = occupancies.reshape(SCAN_STEPS, chains, chunks)[:, :, chunk] * (
                    np.arange(SCAN_STEPS)[:, None, None] >= into)
                upto = (running[:, chunk] - np.add.reduce(rest, axis=0, dtype=np.uint16)
                        - (SCAN_STEPS - into) * lift[:, chunk])
                batches[:, i // batch_len:][:, :at.size - 1] += np.diff(upto, axis=1)
            buf.kept = occupancies, lift, length
    return _ChainSums(total, batches, moves)


def _statistics(sums: _ChainSums, steps: int, burn_in: int) -> tuple[np.ndarray, ...]:
    """Each chain's mean occupancy, its 32-batch-means standard error and acceptance rate.

    Every statistic is a quotient of the integer tallies, so it does not
    depend on how the chains were cut up or blocked.
    """
    kept = steps - burn_in
    n_batches = sums.batches.shape[1]
    stderr = ((sums.batches / (kept // n_batches)).std(axis=1, ddof=1) / math.sqrt(n_batches)
              if n_batches > 1 else np.full(sums.total.size, math.inf))
    return sums.total / kept, stderr, sums.moves / steps


def equilibrate(x: float, steps: int, burn_in: int, rng: np.random.Generator) -> ChainStatistics:
    """Run the jitter chain at ratio x = hf/k_B T from n = 0 and keep its steps after the burn-in.

    The occupancy histogram converges to the geometric law
    P(n) = (1 - q) q^n with q = e^{-x}, and the mean energy, in units of
    k_B T, to the Planck form.  The chain is a one-row block whose buffer of
    max(burn_in, steps - burn_in) steps runs the burn-in and the kept steps
    as one segment each, which keeps the kept chain whole.  A ratio
    ``_up_word`` refuses is refused.
    """
    kept = _kept_steps(steps, burn_in)
    up_word = _up_word(x)
    buf = _ChainBuffers(1, max(burn_in, kept))
    sums = _run_chains([up_word], [0], steps, burn_in, [rng], buf)
    mean = (sums.total / kept).item()
    occupancies = buf.walk()[0]
    return ChainStatistics(steps, occupancies, np.bincount(occupancies), mean * x)


class SweepColumns(NamedTuple):
    """A sweep's results, one float64 entry per ratio in the order given; energies in k_B T."""

    ratio: np.ndarray  # hf/k_B T, which is hf at k_B T = 1
    mc_mean_energy: np.ndarray
    mc_stderr: np.ndarray
    closed_form: np.ndarray
    relative_error: np.ndarray
    acceptance_rate: np.ndarray


def spectrum_sweep(ratios: Sequence[float], steps: int, burn_in: int,
                   master_seed: int) -> SweepColumns:
    """One equilibrated chain per ratio x = hf/k_B T from n = 0, compared to the closed form.

    Chains are independent: replica i draws from the stream keyed by
    (master seed, "cavity", i), so duplicated ratios give independent
    estimates of the same mean.  The chains run side by side in blocks of
    ``CHUNK // width`` chains, with width = min(CHUNK, max(burn_in, kept)),
    one block after another on the calling thread through one buffer of
    ``CHUNK`` steps, so memory does not grow with ``steps``.  A block
    derives its chains' streams when it starts, in replica order, drops
    them when it ends and keeps its chains' statistics, three floats a
    chain, so memory does not grow by a generator or a tally a chain
    either.  A sweep of no ratio, of more than ``MAX_SWEEP_STEPS`` steps in
    all, with a ratio ``_up_word`` refuses, or with no kept step, is refused
    before any chain starts, and each ratio's bound and closed form are taken
    once.
    """
    if len(ratios) == 0:
        raise ValueError("a sweep needs at least one ratio")
    if len(ratios) * steps > MAX_SWEEP_STEPS:
        raise ValueError(f"a sweep of {len(ratios)} x {steps} steps exceeds the budget"
                         f" of {MAX_SWEEP_STEPS:.0e} steps")
    up_words = np.fromiter(map(_up_word, ratios), dtype=np.uint64, count=len(ratios))
    closed = np.fromiter(map(planck_energy, ratios), dtype=np.float64, count=len(ratios))
    width = min(CHUNK, max(burn_in, _kept_steps(steps, burn_in)))
    block = CHUNK // width
    buf = _ChainBuffers(block, width)
    mean, stderr, acceptance = np.empty((3, len(ratios)))
    for lo in range(0, len(ratios), block):
        rows = range(lo, min(lo + block, len(ratios)))
        rngs = [derive_rng(master_seed, "cavity", i) for i in rows]
        sums = _run_chains(up_words[lo:lo + block], [0] * len(rows), steps, burn_in, rngs, buf)
        mean[lo:lo + block], stderr[lo:lo + block], acceptance[lo:lo + block] = _statistics(
            sums, steps, burn_in)
    xs = np.array(ratios, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # a closed form may underflow to 0
        rel = np.where(closed > 0.0, np.abs(mean * xs - closed) / closed, math.inf)
    return SweepColumns(xs, mean * xs, stderr * xs, closed, rel, acceptance)
