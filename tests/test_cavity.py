import dataclasses
import decimal
import math
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phasorlab import cavity
from phasorlab.cavity import equilibrate, planck_energy, spectrum_sweep
from phasorlab.seeding import derive_rng

# the engine takes the ratio x = hf/k_B T alone, so a "frequency" below is x: the
# frequency at h = k_B = T = 1, and the lobe energy in units of k_B T


def oracle_walk(n0, frequency, uniforms):
    """``oracles.jitter_loop`` from ``n0`` at ``frequency`` (q = e^-frequency), as an array."""
    return np.array(oracles.jitter_loop(n0, math.exp(-frequency), uniforms.tolist()))


def run_block(n0s, frequencies, steps, burn_in, rngs, width):
    """Chains at ``frequencies`` from ``n0s``, side by side in one kernel block.

    The block is ``width`` steps wide.  Returns each chain's mean occupancy, mean energy,
    its standard error and acceptance rate, from the block's ``_statistics`` columns.
    """
    sums = cavity._run_chains([cavity._up_word(f) for f in frequencies], n0s, steps, burn_in,
                              rngs, cavity._ChainBuffers(len(n0s), width))
    mean, stderr, acceptance = cavity._statistics(sums, steps, burn_in)
    lobes = np.array(frequencies, dtype=float)
    return list(zip(mean.tolist(), (mean * lobes).tolist(), (stderr * lobes).tolist(),
                    acceptance.tolist()))


def stream_chain(n0, frequency, steps, burn_in, rng, width):
    """One chain as a one-row block: its ``run_block`` statistics."""
    return run_block([n0], [frequency], steps, burn_in, [rng], width)[0]


def loop_statistics(n0, frequency, burn_in, occ):
    """``run_block``'s statistics of the chain from ``n0`` at ``frequency`` through ``occ``.

    The standard error is that of the means of min(32, kept) equal batches of the kept
    steps, the remainder dropped.
    """
    kept = occ[burn_in:]
    n_batches = min(32, kept.size)
    batch_len = kept.size // n_batches
    batches = kept[:n_batches * batch_len].reshape(n_batches, batch_len).sum(axis=1)
    stderr = ((batches / batch_len).std(ddof=1) / math.sqrt(n_batches) if n_batches > 1
              else math.inf)
    mean = kept.sum() / kept.size
    moves = np.count_nonzero(np.diff(occ, prepend=n0))
    return mean, mean * frequency, stderr * frequency, moves / occ.size


def sweep_row(sweep, i):
    """Mean energy, its standard error and acceptance rate of chain ``i`` of a sweep."""
    return sweep.mc_mean_energy[i], sweep.mc_stderr[i], sweep.acceptance_rate[i]


# --- types -------------------------------------------------------------------

# --- the scalar move (oracles.jitter_loop) ----------------------------------------

def test_downhill_always_accepted():
    for u in (0.5, 0.999999):
        assert oracles.jitter_loop(3, math.exp(-1), [u]) == [2]


def test_floor_proposal_rejected_outright():
    assert oracles.jitter_loop(0, math.exp(-1), [0.5, 0.999999]) == [0, 0]


def test_uphill_acceptance_probability():
    # uniforms below 1/2 propose n + 1; their accepted share brackets q = e^{-1}
    accepted = sum(oracles.jitter_loop(4, math.exp(-1), [u]) == [5]
                   for u in np.linspace(0.0005, 0.9995, 1000) / 2)
    assert accepted / 1000 == pytest.approx(math.exp(-1), abs=2e-3)
    assert oracles.jitter_loop(4, math.exp(-1), [0.4999]) == [4]
    assert oracles.jitter_loop(1, math.exp(-2.5), [0.0]) == [2]  # u = 0 always moves up


@pytest.mark.parametrize("lobe", [0.0, -1.0, -1e-300])
def test_mode_family_refuses_non_positive_lobe_energy(lobe):
    # the kernel accepts every downhill move, which the scalar move does only for a positive
    # lobe: with lobe -1 the two walks part (n = 17 against n = 597 after 2000 steps)
    with pytest.raises(ValueError, match="hf/k_B T must be positive"):
        equilibrate(lobe, 2000, 0, derive_rng(0, "cavity", 0))


# --- vectorized kernel vs direct loop -------------------------------------------

def test_vectorized_chain_matches_stepwise_loop():
    # oracle: the paper's move, looped over the kernel's own uniforms
    steps = 5000
    uniforms = derive_rng(11, "cavity", 0).random(steps)
    for lobe in (0.8, 1.0):
        chain = equilibrate(lobe, steps, 0, derive_rng(11, "cavity", 0))
        assert np.array_equal(chain.occupancies, oracle_walk(0, lobe, uniforms))
        block = stream_chain(2, lobe, steps, 0, derive_rng(11, "cavity", 0), steps)
        assert block == loop_statistics(2, lobe, 0, oracle_walk(2, lobe, uniforms))


def test_equilibrate_uses_the_family_lobe_energy():
    # the mean energy, in units of k_B T, is the mean occupancy times the lobe energy x
    chain = equilibrate(2.0, 10 ** 6, 10 ** 4, derive_rng(3, "cavity", 0))
    assert chain.mean_energy == chain.occupancies.sum() / chain.occupancies.size * 2.0
    closed = planck_energy(2.0)  # 2 / (e^2 - 1) = 0.313
    assert abs(chain.mean_energy - closed) / closed < 0.02


@pytest.mark.parametrize("steps, chunk", [(1, cavity.CHUNK), (1000, 7),
                                          (2 * cavity.CHUNK + 3, cavity.CHUNK)])
def test_chain_draws_one_uniform_per_step(steps, chunk):
    rng = derive_rng(13, "cavity", 2)
    stream_chain(0, 0.7, steps, 0, rng, chunk)
    reference = derive_rng(13, "cavity", 2)
    reference.random(steps)
    assert np.array_equal(rng.random(9), reference.random(9))


@pytest.mark.parametrize("q", [1 - 2 ** -53, math.exp(-1), 1e-10, 1e-300, 5e-324, 0.0])
def test_raw_words_move_exactly_where_their_uniforms_do(q):
    # Generator.random takes u = (w >> 11) 2^-53 from the Philox word w that the kernel reads
    words = derive_rng(3, "cavity", 0).bit_generator.random_raw(1000).tolist()
    assert [(w >> 11) * 2.0 ** -53 for w in words] == derive_rng(3, "cavity", 0).random(
        1000).tolist()
    # the chain at x = -ln q, whose e^-x is q within a few ulps (x = 800 for q = 0), on the
    # words either side of each bound; at q = 5e-324, q/2 rounds to 0 and no word moves up
    x = -math.log(q) if q > 0.0 else 800.0
    q, down = math.exp(-x), 2 ** 63
    if q >= 1 - 2 ** -53:  # every word below the down bound would move up: no equilibrium
        with pytest.raises(ValueError, match="too small"):
            cavity._up_word(x)
        bound = down
    else:
        bound = cavity._up_word(x)
    near = {w + d for w in (0, bound, down, 2 ** 64 - 1) for d in (-2 ** 11, -1, 0, 1, 2 ** 11)}
    w = np.array(sorted(word for word in near if 0 <= word < 2 ** 64), dtype=np.uint64)
    u = (w >> np.uint64(11)).astype(float) * 2.0 ** -53
    assert np.array_equal(np.less(w, bound), u < 0.5 * q)
    assert np.array_equal(np.greater_equal(w, cavity._DOWN_WORD), u >= 0.5)


# --- equilibrate ------------------------------------------------------------------

def test_equilibrate_frozen_at_low_temperature():
    # hf/k_B T = 50: the chain cannot leave n = 0 (third-law freeze-out)
    chain = equilibrate(50.0, 10 ** 6, 10 ** 4, derive_rng(5, "cavity", 0))
    assert not chain.occupancies.any()
    assert chain.mean_energy == 0.0


def test_equilibrate_matches_planck_at_unit_ratio():
    chain = equilibrate(1.0, 10 ** 6, 10 ** 4, derive_rng(1, "cavity", 0))
    closed = planck_energy(1.0)
    assert closed == pytest.approx(1.0 / (math.e - 1.0))
    assert abs(chain.mean_energy - closed) / closed < 0.02


def test_equilibrate_histogram_mass_and_acceptance():
    chain = equilibrate(1.0, 200_000, 5_000, derive_rng(2, "cavity", 0))
    assert chain.occupancy_histogram.sum() == 200_000 - 5_000
    _, _, stderr, acceptance = stream_chain(0, 1.0, 200_000, 5_000, derive_rng(2, "cavity", 0),
                                            cavity.CHUNK)
    assert 0.0 < acceptance < 1.0
    assert stderr > 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        chain.occupancies = None


def test_equilibrate_rejects_empty_sampling_window():
    with pytest.raises(ValueError):
        equilibrate(1.0, 100, 100, derive_rng(0, "cavity", 0))
    with pytest.raises(ValueError):
        equilibrate(1.0, 100, -1, derive_rng(0, "cavity", 0))


def test_equilibrate_refuses_an_underflowing_hf_over_kt():
    # q = e^{-1e-310} rounds to 1 and the walk is null recurrent: its peak occupancy grew
    # from 80 at 10^4 steps to 668 at 10^6, and the mean it returned estimated nothing
    with pytest.raises(ValueError, match="hf/k_B T = 1e-310 is too small"):
        equilibrate(1e-310, 10 ** 4, 10, derive_rng(0, "cavity", 0))


def test_planck_energy_answers_where_the_walk_is_refused():
    # x / expm1(x) is defined in the symmetric band and rounds to 1 there; only a walk is refused
    assert planck_energy(1e-300) == planck_energy(5e-324) == 1.0
    edge = 1.6653345369377348e-16  # the largest x of the band
    assert planck_energy(edge) == edge / math.expm1(edge)
    with pytest.raises(ValueError, match="too small"):
        equilibrate(1e-300, 10 ** 4, 10, derive_rng(0, "cavity", 0))
    with pytest.raises(ValueError, match="too small"):
        spectrum_sweep([1.0, 1e-300], 10 ** 4, 10, master_seed=0)


def test_classical_limit_of_planck_law():
    # hf/k_B T = 0.01 sits within 0.5% of equipartition k_B T
    assert planck_energy(0.01) == pytest.approx(1.0, rel=5.1e-3)


def test_classical_limit_chain_ensemble():
    """Equilibrium-started ensemble mean at hf/k_B T = 0.01 recovers k_B T.

    A single chain cannot resolve this regime at desk scale: the +-1 walk
    relaxes on ~1/(1-q)^2 ~ 4e4 steps with sigma/mean ~ 1.  Independent
    chains drawn from the stationary law average it out honestly.
    """
    x = 0.01
    q = math.exp(-x)
    rng = derive_rng(7, "cavity", 123)
    chains = 30_000
    length = 300
    n0 = rng.geometric(1.0 - q, size=chains) - 1
    # kernel blocks whose rows share the stream take its draws in row order, one chain
    # after another; each row's final occupancy is the last column of the block's walk
    rows = cavity.CHUNK // length
    buf, total = cavity._ChainBuffers(rows, length), 0
    for lo in range(0, chains, rows):
        block = n0[lo:lo + rows]
        cavity._run_chains([cavity._up_word(x)] * block.size, block, length, 0,
                           [rng] * block.size, buf)
        total += int(buf.walk()[:, -1].sum())
    assert total == 2_984_048  # the total of 30,000 one-row chains on the same stream
    mean_energy = x * total / chains  # lobe energy x per occupancy unit
    assert abs(mean_energy - 1.0) < 0.03


# --- closed form ------------------------------------------------------------------

def test_planck_expectation_reference_values():
    assert planck_energy(1.0) == pytest.approx(0.5819767068693265, abs=1e-12)
    assert planck_energy(5.0) == pytest.approx(5.0 / (math.exp(5.0) - 1.0), abs=1e-15)
    assert planck_energy(5.0) == pytest.approx(5.0 * 6.783654906304231e-3, rel=1e-9)


def test_planck_expectation_matches_decimal_reference():
    # hf / (e^x - 1) at hf = x to 50 digits; past x = 709.78 e^x overflows a float, and the
    # value stays within a few ulps where it is normal and one subnormal step below that
    for x in (1.0, 5.0, 700.5, 709.78, 712.0, 745.0):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            want = float(decimal.Decimal(x) / (decimal.Decimal(x).exp() - 1))
        got = planck_energy(x)
        step = 4.0 * math.ulp(want) if want >= sys.float_info.min else math.ulp(0.0)
        assert abs(got - want) <= step, (x, got, want)
    assert planck_energy(800.0) == 0.0


def test_planck_expectation_refuses_an_overflowing_lobe_energy():
    # x = inf would make the closed form inf / inf; a chain refuses it the same way
    with pytest.raises(ValueError, match="hf/k_B T must be positive and finite"):
        planck_energy(math.inf)


def test_planck_monotone_in_hf_over_kt():
    energies = [planck_energy(x) for x in np.linspace(0.05, 30.0, 120)]
    assert all(b < a for a, b in zip(energies, energies[1:]))


# --- sweep -----------------------------------------------------------------------

def test_spectrum_sweep_relative_errors():
    sweep = spectrum_sweep([0.5, 1.0, 2.0, 5.0], 10 ** 6, 10 ** 4, master_seed=1)
    assert sweep.relative_error.shape == (4,)
    assert np.all(sweep.relative_error < 0.02)


def test_spectrum_sweep_columns_are_float64_arrays_in_frequency_order():
    frequencies = [2.0, 0.5, 1]
    sweep = spectrum_sweep(frequencies, 2000, 100, master_seed=1)
    assert sweep._fields == ("ratio", "mc_mean_energy", "mc_stderr", "closed_form",
                             "relative_error", "acceptance_rate")
    for column in sweep:
        assert column.dtype == np.float64 and column.shape == (3,)
    assert sweep.ratio.tolist() == frequencies
    assert sweep.closed_form.tolist() == [planck_energy(f) for f in frequencies]


def test_spectrum_sweep_underflowed_closed_form_without_a_warning():
    # the closed form at hf/k_B T = 800 underflows to 0, and the chain never leaves n = 0:
    # 0 / 0 and x / 0 must not warn, which this suite turns into errors
    sweep = spectrum_sweep([800.0, 1.0], 1000, 10, master_seed=0)
    assert sweep.closed_form[0] == 0.0
    assert sweep.mc_mean_energy[0] == 0.0
    assert sweep.relative_error[0] == math.inf
    assert math.isfinite(sweep.relative_error[1])


def test_spectrum_sweep_duplicate_frequency_consistency():
    sweep = spectrum_sweep([1.0, 1.0], 400_000, 10_000, master_seed=3)
    a, b = sweep.mc_mean_energy
    sigma = math.hypot(*sweep.mc_stderr)
    assert abs(a - b) < 3.0 * sigma
    assert a != b  # distinct streams


def test_spectrum_sweep_rejects_bad_frequency():
    with pytest.raises(ValueError):
        spectrum_sweep([-1.0], 1000, 10, master_seed=0)


@pytest.mark.parametrize("frequencies", [[1.0, -1.0], [1.0, math.nan], [1.0, 0.0],
                                         [1.0, math.inf]])
def test_spectrum_sweep_refuses_bad_frequency_before_any_chain(frequencies):
    # 10^8 steps a chain: running the first chain before the check would take seconds
    start = time.monotonic()
    with pytest.raises(ValueError, match="positive"):
        spectrum_sweep(frequencies, 10 ** 8, 0, master_seed=0)
    assert time.monotonic() - start < 1.0


def test_spectrum_sweep_refuses_steps_over_budget():
    start = time.monotonic()
    with pytest.raises(ValueError, match="budget"):
        spectrum_sweep([1.0, 2.0], cavity.MAX_SWEEP_STEPS // 2 + 1, 0, master_seed=0)
    assert time.monotonic() - start < 1.0


def test_spectrum_sweep_refuses_no_frequency_by_name():
    # once ended in "max() arg is an empty sequence" (planck_sweep.py --points 0)
    with pytest.raises(ValueError, match="at least one ratio"):
        spectrum_sweep([], 1000, 10, master_seed=0)


def test_spectrum_sweep_rejects_empty_sampling_window():
    # burn-in swallowing every step propagates equilibrate's usage error
    with pytest.raises(ValueError):
        spectrum_sweep([1.0], 500, 500, master_seed=0)


# --- streamed chains --------------------------------------------------------------------

CHUNK = cavity.CHUNK


@pytest.mark.parametrize("steps, burn_in, n0", [
    (CHUNK - 1, 0, 0),                  # one partial chunk
    (CHUNK, 1000, 0),                   # burn-in inside the first chunk
    (CHUNK + 1, CHUNK, 0),              # burn-in on a chunk edge
    (CHUNK + 1, CHUNK - 20, 0),         # 21 kept steps across the edge
    (3 * CHUNK + 2, 0, 3),              # batches straddle chunk edges
    (3 * CHUNK + 2, 1000, 0),
    (3 * CHUNK + 2, 2 * CHUNK, 5),
    (3 * CHUNK + 2, 3 * CHUNK + 1, 0),  # burn-in inside the last chunk, one kept step
])
@pytest.mark.parametrize("frequency", [0.4, 2.0])
def test_streamed_chain_equals_equilibrate(steps, burn_in, n0, frequency):
    streamed = stream_chain(n0, frequency, steps, burn_in, derive_rng(21, "cavity", 4), CHUNK)
    # equilibrate's layout: the burn-in and the kept steps one segment each
    assert streamed == stream_chain(n0, frequency, steps, burn_in, derive_rng(21, "cavity", 4),
                                    max(burn_in, steps - burn_in))
    occ = oracle_walk(n0, frequency, derive_rng(21, "cavity", 4).random(steps))
    assert streamed == loop_statistics(n0, frequency, burn_in, occ)
    # equilibrate starts at n = 0
    whole = equilibrate(frequency, steps, burn_in, derive_rng(21, "cavity", 4))
    from_zero = stream_chain(0, frequency, steps, burn_in, derive_rng(21, "cavity", 4), CHUNK)
    assert from_zero[:2] == (whole.occupancies.sum() / (steps - burn_in), whole.mean_energy)
    assert np.array_equal(whole.occupancy_histogram, np.bincount(whole.occupancies))
    assert whole.occupancy_histogram.sum() == steps - burn_in


def check_chain_against_loop(n0, frequency, steps, burn_in, chunk):
    """Streamed chain from ``n0``, whole chain from 0 and stepwise loops agree on one stream."""
    whole_rng, streamed_rng = derive_rng(17, "cavity", 3), derive_rng(17, "cavity", 3)
    whole = equilibrate(frequency, steps, burn_in, whole_rng)
    streamed = stream_chain(n0, frequency, steps, burn_in, streamed_rng, chunk)

    reference = derive_rng(17, "cavity", 3)
    uniforms = reference.random(steps)
    assert streamed == loop_statistics(n0, frequency, burn_in,
                                       oracle_walk(n0, frequency, uniforms))
    occ = oracle_walk(0, frequency, uniforms)
    assert np.array_equal(whole.occupancies, occ[burn_in:])
    assert whole.mean_energy == loop_statistics(0, frequency, burn_in, occ)[1]
    # both chains drew exactly ``steps`` uniforms
    after = reference.random(4)
    assert np.array_equal(whole_rng.random(4), after)
    assert np.array_equal(streamed_rng.random(4), after)


# lobe energies: moderate ones, 1e-9 (q = 1 - 1e-9) and 800 (q = 0)
LOBES = st.floats(0.05, 8.0) | st.sampled_from([1e-9, 800.0])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 300), LOBES, st.integers(1, 400), st.integers(1, 300), st.data())
def test_chain_matches_stepwise_loop_across_chunk_and_burn_in_cuts(n0, frequency, steps,
                                                                   chunk, data):
    burn_in = data.draw(st.integers(0, steps - 1), label="burn_in")
    check_chain_against_loop(n0, frequency, steps, burn_in, chunk)


@pytest.mark.parametrize("steps, burn_in, chunk", [
    (200, 0, 16),     # no burn-in
    (200, 16, 16),    # burn-in ends on a chunk edge
    (200, 199, 16),   # one kept step
    (1, 0, 1),
])
@pytest.mark.parametrize("n0", [0, 7])
def test_chain_matches_stepwise_loop_at_named_cuts(steps, burn_in, chunk, n0):
    check_chain_against_loop(n0, 1.5, steps, burn_in, chunk)


def test_spectrum_sweep_equals_equilibrate_per_replica():
    steps, burn_in = 2 * CHUNK + 3, 500
    sweep = spectrum_sweep([0.7, 0.7, 3.0], steps, burn_in, master_seed=9)
    for i, f in enumerate(sweep.ratio):
        chain = equilibrate(f, steps, burn_in, derive_rng(9, "cavity", i))
        assert sweep.mc_mean_energy[i] == chain.mean_energy
        assert sweep_row(sweep, i) == stream_chain(0, f, steps, burn_in,
                                                   derive_rng(9, "cavity", i), CHUNK)[1:]


# --- chains side by side ---------------------------------------------------------------

def block_streams(count, shared):
    """Per-row generators: one stream shared by every row, or stream i for row i."""
    if shared:
        return [derive_rng(31, "cavity", 0)] * count
    return [derive_rng(31, "cavity", i) for i in range(count)]


def check_block_against_loop(n0s, frequencies, steps, burn_in, width, shared=False):
    """Each row of one kernel block equals a stepwise loop, and ``equilibrate`` from 0 does.

    ``equilibrate`` runs row by row on generators of its own, so rows that share a stream
    take the same draws in it as in the block.
    """
    chains = run_block(n0s, frequencies, steps, burn_in, block_streams(len(n0s), shared), width)
    whole_rngs, loop_rngs = (block_streams(len(n0s), shared) for _ in range(2))
    for c, (n0, frequency, chain) in enumerate(zip(n0s, frequencies, chains)):
        uniforms = loop_rngs[c].random(steps)
        assert chain == loop_statistics(n0, frequency, burn_in,
                                        oracle_walk(n0, frequency, uniforms))
        whole = equilibrate(frequency, steps, burn_in, whole_rngs[c])
        occ = oracle_walk(0, frequency, uniforms)
        assert np.array_equal(whole.occupancies, occ[burn_in:])
        assert whole.mean_energy == loop_statistics(0, frequency, burn_in, occ)[1]
    return chains


def test_block_rows_sharing_one_stream_take_sequential_draws():
    # one segment per chain: row c takes the (c+1)-th run of 150 draws
    check_block_against_loop([0, 3, 0, 9, 300, 120], [0.4, 0.4, 2.0, 1.1, 1e-9, 800.0], 150, 0,
                             150, shared=True)


def test_block_width_below_the_burn_in():
    # five burn-in and eight kept segments per chain, each row from its own n0
    check_block_against_loop([0, 4, 11, 200], [0.3, 1.0, 2.5, 1e-9], 185, 70, 16)


def test_block_rows_start_from_their_own_occupancies():
    # up to 300 above the floor, more than a scan chunk of 64 steps can reach down, on segments
    # of 300 steps, which pad their last chunk
    check_block_against_loop([0, 1, 5, 20, 60, 130, 300], [0.8] * 5 + [1e-9, 800.0], 700, 37,
                             300)


def test_block_of_one_kept_step_gives_infinite_stderr():
    chains = check_block_against_loop([0, 2, 6, 300], [0.5, 1.0, 4.0, 800.0], 40, 39, 8)
    assert all(stderr == math.inf for _, _, stderr, _ in chains)


def test_sweep_blocks_that_do_not_divide_the_chain_count(monkeypatch):
    # a 64-step buffer holds two 30-step rows, so five chains run as blocks of 2, 2 and 1
    monkeypatch.setattr(cavity, "CHUNK", 64)
    frequencies, steps, burn_in = [0.3, 0.9, 0.9, 2.0, 5.0], 50, 20
    sweep = spectrum_sweep(frequencies, steps, burn_in, master_seed=4)
    for i, f in enumerate(frequencies):
        chain = equilibrate(f, steps, burn_in, derive_rng(4, "cavity", i))
        assert sweep.mc_mean_energy[i] == chain.mean_energy
        assert sweep_row(sweep, i) == stream_chain(0, f, steps, burn_in,
                                                   derive_rng(4, "cavity", i), CHUNK)[1:]
        occ = oracle_walk(0, f, derive_rng(4, "cavity", i).random(steps))
        assert sweep.mc_mean_energy[i] == occ[burn_in:].sum() / (steps - burn_in) * f


def test_spectrum_sweep_takes_each_bound_once(monkeypatch):
    # every ratio's bound is taken before the first chain runs, and the chains run on them
    up_word, run_chains, words, blocks = cavity._up_word, cavity._run_chains, [], []

    def counted_up_word(x):
        words.append(up_word(x))
        return words[-1]

    def recorded_run_chains(up_words, *args):
        assert len(words) == 5
        blocks.append(up_words.tolist())
        return run_chains(up_words, *args)
    monkeypatch.setattr(cavity, "_up_word", counted_up_word)
    monkeypatch.setattr(cavity, "_run_chains", recorded_run_chains)
    monkeypatch.setattr(cavity, "CHUNK", 64)  # blocks of 2, 2 and 1 chains of 30 steps
    spectrum_sweep([0.3, 0.9, 0.9, 2.0, 5.0], 50, 20, master_seed=4)
    assert len(blocks) == 3
    assert [word for block in blocks for word in block] == words


def sweep_peak(frequencies, steps, burn_in):
    """The tracemalloc peak of one sweep, in bytes."""
    tracemalloc.start()
    try:
        spectrum_sweep(frequencies, steps, burn_in, master_seed=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("steps", [4_000_000, 16_000_000])
def test_spectrum_sweep_memory_does_not_grow_with_steps(steps):
    # one chain, then four chains one after another
    for frequencies in ([1.0], [0.5, 1.0, 2.0, 5.0]):
        assert sweep_peak(frequencies, steps, 10_000) < 8 * 2 ** 20


def test_spectrum_sweep_memory_does_not_grow_by_a_stream_a_chain():
    # blocks of 65 chains: a block derives its streams when it starts, drops them when it ends
    # and keeps three floats a chain, so 2,000 chains peak above 100 by no more than the sweep's
    # columns, eight float64 values a chain, never by a generator (about 1 kB) or by a
    # chain's 34 integer tallies (272 B) a chain
    sweep_peak([1.0], 2000, 1000)  # the first call's one-time allocations
    few, many = (sweep_peak(list(np.geomspace(0.5, 5.0, n)), 2000, 1000) for n in (100, 2000))
    assert many - few < 1900 * 64


# --- sweeps on the calling thread ----------------------------------------------------

def test_sweep_of_many_blocks_starts_no_thread(monkeypatch):
    # forty one-chain blocks run one after another on the calling thread
    started, start = [], threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(cavity, "CHUNK", 64)
    frequencies = list(np.geomspace(0.3, 5.0, 40))
    sweep = spectrum_sweep(frequencies, 200, 150, master_seed=8)
    assert started == []
    for i in (0, 39):
        assert sweep_row(sweep, i) == stream_chain(0, frequencies[i], 200, 150,
                                                   derive_rng(8, "cavity", i), 64)[1:]


class CaseTimeout(BaseException):
    """Stands for an alarm that interrupts the calling thread mid-sweep."""


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a POSIX interval timer")
def test_alarm_stops_a_helper_within_one_segment():
    # two chains of 1e8 steps take over a second: the alarm must end the sweep within one
    # segment, not at the end of a chain
    def alarm(signum, frame):
        raise CaseTimeout

    before, previous = threading.active_count(), signal.signal(signal.SIGALRM, alarm)
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.1)
    try:
        with pytest.raises(CaseTimeout):
            spectrum_sweep([1.0, 2.0], 10 ** 8, 10_000, master_seed=1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 0.5
    assert threading.active_count() == before


# --- stationary-law checks ----------------------------------------------------------


def test_detailed_balance_flow_ratios():
    chain = equilibrate(1.0, 10 ** 6, 10 ** 4, derive_rng(1, "cavity", 0))
    ratios = oracles.transition_flow_ratios(chain.occupancies)
    assert len(ratios) >= 3
    q = math.exp(-1.0)
    for level in ratios:
        assert abs(math.log(level.ratio) - math.log(q)) < 3.0 * level.log_sigma


def test_geometric_chi_square_goodness_of_fit():
    # thin by ~3 autocorrelation times; Pearson assumes independent draws
    chain = equilibrate(1.0, 10 ** 6, 10 ** 4, derive_rng(4, "cavity", 0))
    hist = np.bincount(chain.occupancies[::16])
    _, p_value, dof = oracles.geometric_chi_square(hist, math.exp(-1.0))
    assert dof >= 2
    assert p_value >= 0.01


def test_geometric_chi_square_rejects_wrong_law():
    chain = equilibrate(1.0, 200_000, 50_000, derive_rng(4, "cavity", 0))
    hist = np.bincount(chain.occupancies[::16])
    _, p_value, _ = oracles.geometric_chi_square(hist, math.exp(-2.0))
    assert p_value < 1e-6
