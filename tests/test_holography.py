import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasorlab import holography as holo

LAM = 1.0
CH1 = holo.FrequencyChannel.harmonic(1, LAM)
CH2 = holo.FrequencyChannel.harmonic(2, LAM)
CH3 = holo.FrequencyChannel.harmonic(3, LAM)
CH5 = holo.FrequencyChannel.harmonic(5, LAM)
DOMAIN = (0.0, 10.0)


def bruteforce_mask(bits, domain, resolution):
    """Independent oracle: scan a dense z grid with the raw parity rule."""
    z = np.arange(domain[0], domain[1], resolution)
    ok = np.ones(z.size, dtype=bool)
    for bit in bits:
        k = bit.channel.wavenumber
        parity = np.floor((k * (bit.detector_position - z) + bit.alpha) / math.pi)
        ok &= (parity.astype(np.int64) % 2) == bit.parity
    return z, ok


def assert_members_match_oracle(result, bits, domain, resolution):
    """Membership equals the brute-force parity scan of the domain away from interval edges."""
    z, ok = bruteforce_mask(bits, domain, resolution)
    member = np.array([result.contains(v) for v in z])
    edges = np.zeros(z.size, dtype=bool)
    for lo, hi in result.intervals:
        edges |= (np.abs(z - lo) < 1e-6) | (np.abs(z - hi) < 1e-6)
    assert np.array_equal(member[~edges], ok[~edges])


def tuple_alias_intervals(bit, domain):
    """Oracle: the per-m loop over parity-matched intervals, as (lo, hi) tuples."""
    lo_d, hi_d = domain
    channel, alpha = bit.channel, bit.alpha
    k = channel.wavenumber
    tol = holo.EDGE_TOL_FACTOR * channel.wavelength
    z_d = bit.detector_position
    m_lo = math.floor((alpha - k * (hi_d - z_d)) / math.pi) - 2
    m_hi = math.ceil((alpha - k * (lo_d - z_d)) / math.pi) + 2
    out = []
    for m in range(m_lo, m_hi + 1):
        if m % 2 != bit.parity:
            continue
        lo = z_d + (alpha - (m + 1) * math.pi) / k
        hi = z_d + (alpha - m * math.pi) / k
        lo, hi = max(lo, lo_d), min(hi, hi_d)
        if hi - lo > tol:
            out.append((lo, hi))
    out.sort()
    return out, tol


def tuple_intersect(a, b, tol):
    """Oracle: two-pointer merge of sorted disjoint (lo, hi) lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi - lo > tol:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def tuple_prefixes(bits, domain):
    """Oracle running intersection after every bit; None once it is empty."""
    result, tol = None, 0.0
    for bit in bits:
        cell, cell_tol = tuple_alias_intervals(bit, domain)
        tol = max(tol, cell_tol)
        result = cell if result is None else tuple_intersect(result, cell, tol)
        yield result or None


# --- channels and bits -------------------------------------------------------

def test_channel_dispersion_and_wavelength():
    ch = holo.FrequencyChannel.harmonic(3, 2.0)
    assert ch.wavelength == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        holo.FrequencyChannel(0, 1.0)


def test_forward_bit_zero_separation():
    assert holo.forward_bit(1.0, 1.0, CH1, alpha=0.0).parity == 0


def test_forward_bit_quarter_and_three_quarter():
    # floor-parity rule on the separation
    assert holo.forward_bit(0.0, LAM / 4, CH1, 0.0).parity == 0
    assert holo.forward_bit(0.0, 3 * LAM / 4, CH1, 0.0).parity == 1


@settings(deadline=None, max_examples=60)
@given(st.floats(-20, 20, allow_nan=False), st.floats(-20, 20, allow_nan=False),
       st.floats(0, 2 * math.pi, allow_nan=False))
def test_forward_bit_wavelength_periodicity(z_s, z_d, alpha):
    # parity flips exactly at interval edges; stay clear of float noise there
    u = (CH1.wavenumber * (z_d - z_s) + alpha) / math.pi
    assume(min(u % 1.0, 1.0 - u % 1.0) > 1e-9)
    base = holo.forward_bit(z_s, z_d, CH1, alpha).parity
    shifted = holo.forward_bit(z_s + LAM, z_d, CH1, alpha).parity
    assert base == shifted


@settings(deadline=None, max_examples=100)
@given(st.integers(-800, 800),
       st.lists(st.integers(1, 34), min_size=1, max_size=8, unique=True),
       st.lists(st.sampled_from([0.0, 0.3, 0.7, -2.5, 1.1]), min_size=1, max_size=3,
                unique=True))
def test_edge_source_is_kept(twice_source, indices, detectors):
    # integer and half-integer sources sit on a parity edge of every channel seen
    # from detector 0, and of some channels from the others
    z_s = twice_source / 2.0
    channels = [holo.FrequencyChannel.harmonic(j, LAM) for j in indices]
    bits = [holo.forward_bit(z_s, z_d, c) for c in channels for z_d in detectors]
    assert holo.localize(bits, (-500.0, 500.0)).contains(z_s)


def test_forward_bit_rejects_bad_parity():
    with pytest.raises(ValueError):
        holo.DetectionBit(0.0, CH1, 0.0, 2)


# --- alias intervals ----------------------------------------------------------

def test_single_wavelength_domain_halved():
    bit = holo.forward_bit(0.37, 0.0, CH1, 0.0)
    cell = holo.alias_intervals(bit, (0.0, LAM))
    assert cell.measure == pytest.approx(LAM / 2, abs=1e-12)


@settings(deadline=None, max_examples=80)
@given(st.floats(0.01, 9.99, allow_nan=False), st.floats(-3, 3, allow_nan=False),
       st.floats(0, 2 * math.pi, allow_nan=False))
def test_forward_inverse_consistency(z_s, z_d, alpha):
    bit = holo.forward_bit(z_s, z_d, CH2, alpha)
    cell = holo.alias_intervals(bit, DOMAIN)
    assert cell.contains(z_s)


def test_aligned_ten_wavelength_domain_has_ten_intervals():
    for parity in (0, 1):
        bit = holo.DetectionBit(0.0, CH1, 0.0, parity)
        cell = holo.alias_intervals(bit, DOMAIN)
        assert len(cell.intervals) == 10
        assert cell.measure == pytest.approx(5.0, abs=1e-9)


def test_component_lengths_are_half_wavelength():
    bit = holo.forward_bit(2.3, 0.31, CH2, 0.7)
    cell = holo.alias_intervals(bit, DOMAIN)
    lengths = [hi - lo for lo, hi in cell.intervals]
    # interior components are exactly lambda/2; the ends may be clipped
    for length in lengths[1:-1]:
        assert length == pytest.approx(CH2.wavelength / 2, abs=1e-12)
    assert all(length <= CH2.wavelength / 2 + 1e-12 for length in lengths)


@pytest.mark.parametrize("seed", range(4))
def test_prefixes_match_tuple_oracle(seed):
    # exact agreement, signed zeros included, on random channels, detectors and domains
    rng = np.random.default_rng(seed)
    for _ in range(60):
        base = rng.choice([1.0, 0.37, rng.uniform(0.05, 5.0)])
        channels = [holo.FrequencyChannel.harmonic(int(j), base)
                    for j in rng.integers(1, 14, rng.integers(1, 6))]
        detectors = rng.choice([0.0, -0.0, rng.uniform(-20, 20), 1.5], rng.integers(1, 4))
        alpha = rng.choice([0.0, -0.0, math.pi, rng.uniform(0, 2 * math.pi)])
        lo = rng.choice([0.0, -0.0, rng.uniform(-50, 50)])
        domain = (lo, lo + rng.choice([10.0, rng.uniform(0.01, 100)]))
        sources = rng.uniform(domain[0], domain[1], len(channels))
        bits = [holo.forward_bit(z_s, d, c, alpha)
                for c, z_s in zip(channels, sources) for d in detectors]
        expected = list(tuple_prefixes(bits, domain))
        got = []
        with (pytest.raises(ValueError, match="inconsistent bits") if None in expected
              else nullcontext()):
            for alias_set in holo.localize_prefixes(bits, domain, 1):
                got.append(alias_set)
        assert len(got) == (expected + [None]).index(None)
        for alias_set, want in zip(got, expected):
            want = np.array(want, dtype=float)
            assert alias_set.intervals.shape == want.shape
            assert alias_set.intervals.tobytes() == want.tobytes()
            assert alias_set.measure == math.fsum(hi - lo for lo, hi in want)
            assert type(alias_set.measure) is float
            assert type(alias_set.contains(float(sources[0]))) is bool


def test_alias_budget_refuses_before_enumerating():
    fine = holo.DetectionBit(0.0, holo.FrequencyChannel.harmonic(1, 1e-12), 0.0, 0)
    with pytest.raises(ValueError, match="alias intervals"):
        holo.alias_intervals(fine, (0.0, holo.MAX_ALIAS_INTERVALS * 1.01e-12))
    # an overflowing phase span is refused too, not passed to floor()
    finer = holo.DetectionBit(0.0, holo.FrequencyChannel.harmonic(1, 1e-300), 0.0, 0)
    with pytest.raises(ValueError, match="alias intervals"):
        holo.alias_intervals(finer, (0.0, 1e300))


@pytest.mark.parametrize("channel, domain, source", [
    (CH1, (0.0, 1e-9), 5e-10),
    (holo.FrequencyChannel.harmonic(1, 1e10), DOMAIN, 2.3),
])
def test_edge_tolerance_scales_with_a_short_domain(channel, domain, source):
    # the domain is 1e-9 wavelengths long, so the tolerance is 1e-9 of the domain length
    bit = holo.forward_bit(source, 0.0, channel)
    alias_set = holo.alias_intervals(bit, domain)
    assert alias_set.edge_tol == holo.EDGE_TOL_FACTOR * (domain[1] - domain[0])
    assert alias_set.intervals.tolist() == [list(domain)]
    assert alias_set.contains(source)


def test_empty_domain_rejected():
    bit = holo.DetectionBit(0.0, CH1, 0.0, 0)
    with pytest.raises(ValueError, match="domain must have positive length"):
        holo.alias_intervals(bit, (4.0, 4.0))


# --- localize -----------------------------------------------------------------

def test_two_channel_localization_refines():
    z_s = 2.3
    bits1 = [holo.forward_bit(z_s, 0.0, CH1, 0.0)]
    bits12 = bits1 + [holo.forward_bit(z_s, 0.0, CH2, 0.0)]
    single = holo.localize(bits1, DOMAIN)
    double = holo.localize(bits12, DOMAIN)
    assert double.contains(z_s)
    assert double.measure <= single.measure + 1e-12
    assert double.granularity == pytest.approx(CH2.wavelength / 2)

    # brute-force oracle at lambda/1000 resolution agrees on the member set
    assert_members_match_oracle(double, bits12, DOMAIN, CH2.wavelength / 1000)


def test_adding_channels_never_increases_measure():
    z_s = 4.321
    channels = [CH1, CH2, CH3, CH5]
    previous = None
    for k in range(1, len(channels) + 1):
        subset = channels[:k]
        bits = [holo.forward_bit(z_s, 0.0, c, 0.5) for c in subset]
        result = holo.localize(bits, DOMAIN)
        assert result.contains(z_s)
        if previous is not None:
            assert result.measure <= previous + 1e-12
        previous = result.measure


def test_adding_detectors_never_increases_measure():
    z_s = 6.77
    detectors = [0.0, 0.27, 1.93]
    previous = None
    for k in range(1, len(detectors) + 1):
        bits = [holo.forward_bit(z_s, d, CH2, 0.0) for d in detectors[:k]]
        result = holo.localize(bits, DOMAIN)
        assert result.contains(z_s)
        if previous is not None:
            assert result.measure <= previous + 1e-12
        previous = result.measure


@settings(deadline=None, max_examples=200)
@given(st.floats(0.01, 9.99, allow_nan=False),
       st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=3),
       st.lists(st.sampled_from([1, 2, 3, 4, 5, 7]), min_size=1, max_size=4,
                unique=True),
       st.floats(0, 2 * math.pi, allow_nan=False))
def test_localize_soundness(z_s, detectors, indices, alpha):
    channels = [holo.FrequencyChannel.harmonic(j, LAM) for j in indices]
    # sources within the edge tolerance of a parity boundary are resolved
    # by the deterministic tie-break, not by set membership; continuous
    # draws land there with probability zero
    for c in channels:
        for d in detectors:
            u = (c.wavenumber * (d - z_s) + alpha) / math.pi
            assume(min(u % 1.0, 1.0 - u % 1.0) > 1e-7)
    bits = [holo.forward_bit(z_s, d, c, alpha) for c in channels for d in detectors]
    result = holo.localize(bits, DOMAIN)
    assert result.contains(z_s)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.lists(st.sampled_from([1, 2, 3, 5, 8, 13, 34]), min_size=1, max_size=3, unique=True),
       st.sampled_from(["alpha", "detector", "domain"]),
       st.floats(0.0, 10.0), st.booleans(), st.floats(0.001, 0.999),
       st.none() | st.floats(2.5, 10.0) | st.floats(-10.0, -2.5))
def test_accepted_phase_never_excludes_source(indices, far, log_offset, negative, fraction,
                                              edge_tols):
    # one of alpha, a detector or the domain sits 10^log_offset out; a bit is refused
    # exactly when its phase passes MAX_BIT_PHASE, and an accepted one keeps every source
    # more than two edge tolerances from each parity boundary (closer ones are tie-breaks)
    channels = [holo.FrequencyChannel.harmonic(j, LAM) for j in indices]
    offset = (-1.0 if negative else 1.0) * 10.0 ** log_offset
    alpha, detectors, domain = 0.3, [0.0, 0.7], DOMAIN
    if far == "alpha":
        alpha = offset
    elif far == "detector":
        detectors = [0.0, offset]
    else:
        domain = (offset, offset + 10.0)
        detectors = [offset, offset + 0.7]
    reach = max(abs(domain[0]), abs(domain[1]))
    phase = max(c.wavenumber * abs(d) + c.wavenumber * reach + abs(alpha)
                for c in channels for d in detectors)
    z_s = domain[0] + fraction * (domain[1] - domain[0])
    if phase > holo.MAX_BIT_PHASE:
        # forward_bit refuses a bit past the bound too; a source in the domain reaches
        # no more phase than the domain's far end does
        with pytest.raises(ValueError, match="phase"):
            bits = [holo.forward_bit(z_s, d, c, alpha) for c in channels for d in detectors]
            holo.localize(bits, domain)
        return
    bits = [holo.forward_bit(z_s, d, c, alpha) for c in channels for d in detectors]
    tol = max(holo.alias_intervals(bit, domain).edge_tol for bit in bits)
    if edge_tols is not None:
        # a few edge tolerances from the first bit's nearest parity boundary
        c, d = channels[0], detectors[0]
        m = round((c.wavenumber * (d - z_s) + alpha) / math.pi)
        z_s = d + (alpha - m * math.pi) / c.wavenumber + edge_tols * tol
        assume(domain[0] < z_s < domain[1])
        bits = [holo.forward_bit(z_s, d, c, alpha) for c in channels for d in detectors]
    for c in channels:
        for d in detectors:
            u = (c.wavenumber * (d - z_s) + alpha) / math.pi
            assume(min(u % 1.0, 1.0 - u % 1.0) > 2 * tol * c.wavenumber / math.pi)
    assert holo.localize(bits, domain).contains(z_s)


def test_bit_phase_limit_is_sharp():
    span = CH1.wavenumber * DOMAIN[1]
    holo.alias_intervals(holo.DetectionBit(0.0, CH1, holo.MAX_BIT_PHASE - span, 0), DOMAIN)
    bit = holo.DetectionBit(0.0, CH1, 1.000001 * holo.MAX_BIT_PHASE - span, 0)
    with pytest.raises(ValueError, match="channel 1 reaches a phase of 1e[+]09 rad"):
        holo.alias_intervals(bit, DOMAIN)


def test_forward_bit_refuses_a_phase_past_the_limit():
    # the phase k(|z_d| + |z_s|) + |alpha| of the bit itself, refused with alias_intervals'
    # message instead of reaching round() as an overflowing float
    z_s = 2.0
    span = CH1.wavenumber * z_s
    holo.forward_bit(z_s, 0.0, CH1, holo.MAX_BIT_PHASE - span)
    with pytest.raises(ValueError, match="channel 1 reaches a phase of 1e[+]09 rad"):
        holo.forward_bit(z_s, 0.0, CH1, 1.000001 * holo.MAX_BIT_PHASE - span)
    for z_d in (1e308, -1e308):
        with pytest.raises(ValueError, match="channel 1 reaches a phase of inf rad, above"):
            holo.forward_bit(z_s, z_d, CH1)


def test_inconsistent_bits_raise():
    # brute-force search for a source pair whose bits cannot coexist
    found = False
    for z_a in np.linspace(0.05, 9.95, 40):
        for z_b in np.linspace(0.05, 9.95, 40):
            bits = [holo.forward_bit(z_a, 0.0, CH1, 0.0),
                    holo.forward_bit(z_b, 0.0, CH1, 0.0),
                    holo.forward_bit(z_a, 0.25, CH1, 0.0),
                    holo.forward_bit(z_b, 0.25, CH1, 0.0)]
            try:
                holo.localize(bits, DOMAIN)
            except ValueError as exc:
                assert "inconsistent bits" in str(exc)
                found = True
                break
        if found:
            break
    assert found


def test_bits_keep_their_own_wavelength_and_alpha():
    # two ladders share channel indices but not wavelengths, and the bits differ in alpha:
    # each bit is inverted with its own channel and alpha, so the source is kept
    z_s = 2.3
    channels = [CH1, CH2, holo.FrequencyChannel.harmonic(1, 1.1),
                holo.FrequencyChannel.harmonic(2, 1.1)]
    bits = [holo.forward_bit(z_s, 0.0, c, alpha) for c in channels for alpha in (0.0, 0.9)]
    result = holo.localize(bits, DOMAIN)
    assert result.contains(z_s)
    assert_members_match_oracle(result, bits, DOMAIN, CH2.wavelength / 1000)


# --- two-detector coincidence ---------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.floats(0.01, 9.99, allow_nan=False), st.integers(-6, 6),
       st.booleans())
def test_two_detector_coincidence_parity_rule(z_s, half_steps, flip):
    # detectors separated by an exact multiple of lambda/2: bits are
    # mutually consistent iff the parity difference matches the separation
    z1 = 0.125
    z2 = z1 + half_steps * LAM / 2
    u = (CH1.wavenumber * (z1 - z_s)) / math.pi
    assume(min(u % 1.0, 1.0 - u % 1.0) > 1e-9)
    b1 = holo.forward_bit(z_s, z1, CH1, 0.0)
    b2 = holo.forward_bit(z_s, z2, CH1, 0.0)
    assert (b1.parity ^ b2.parity) == half_steps % 2
    if flip:
        b2 = holo.DetectionBit(z2, CH1, 0.0, 1 - b2.parity)
    consistent = True
    try:
        holo.localize([b1, b2], DOMAIN)
    except ValueError as exc:
        assert "inconsistent bits" in str(exc)
        consistent = False
    assert consistent == (not flip)


# --- alias density ---------------------------------------------------------------

def test_single_channel_density_is_half():
    assert holo.alias_density([CH1], DOMAIN) == pytest.approx(0.5, abs=1e-12)


def test_density_decreases_with_channels():
    d1 = holo.alias_density([CH1], DOMAIN)
    d12 = holo.alias_density([CH1, CH2], DOMAIN)
    d1235 = holo.alias_density([CH1, CH2, CH3, CH5], DOMAIN)
    assert d12 <= d1 + 1e-12
    assert d1235 <= d12 + 1e-12

    # brute-force oracle for the two-channel density
    z_s = DOMAIN[0] + 0.61803398875 * (DOMAIN[1] - DOMAIN[0])
    bits = [holo.forward_bit(z_s, DOMAIN[1], c, 0.0) for c in (CH1, CH2)]
    z, ok = bruteforce_mask(bits, DOMAIN, CH2.wavelength / 1000)
    assert d12 == pytest.approx(ok.mean(), abs=2e-3)


def test_density_requires_channels_and_domain():
    with pytest.raises(ValueError):
        holo.alias_density([], DOMAIN)
    with pytest.raises(ValueError, match="domain must have positive length"):
        holo.alias_density([CH1], (1.0, 1.0))
