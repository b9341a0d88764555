"""Element-wise math, filters, seeded randomness, and the
finite-difference oracle.

Expected values marked "frozen" were computed once with an independent
high-precision oracle (40-digit arithmetic / Gaussian tail quadrature) and
pasted in as literals.
"""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    bernoulli,
    finite_diff_grad,
    numpy_generator,
    replay,
    tap_loop_filter,
    toeplitz,
    two_branch_sigmoid,
)

from spikelink.encoder import EncoderParams
from spikelink.numerics import (
    FILTER_BLOCK,
    SEED_BLOCK,
    Kernel,
    SeededRng,
    _generators,
    db_to_linear,
    ebn0_to_epsilon,
    exponential_kernel,
    fold_stream_id,
    gaussian_q,
    log_sigmoid,
    sigmoid,
    softplus,
)


class TestSigmoid:
    def test_frozen_values(self):
        # frozen: 40-digit evaluation of 1/(1+exp(-x))
        np.testing.assert_allclose(sigmoid(0.0), 0.5, rtol=0, atol=0)
        np.testing.assert_allclose(sigmoid(10.0), 0.99995460213129756561, rtol=1e-15)
        np.testing.assert_allclose(sigmoid(math.log(3)), 0.75, rtol=1e-15)

    def test_symmetry(self):
        xs = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), np.ones_like(xs), rtol=1e-14)

    def test_extreme_arguments_saturate_without_warnings(self):
        with np.errstate(over="raise"):
            assert sigmoid(700.0) == 1.0
            assert 0.0 < sigmoid(-700.0) < 1e-300
            assert sigmoid(745.0) == 1.0
            assert sigmoid(-745.0) >= 0.0

    def test_within_rounding_of_the_two_branch_form(self):
        # x >= 0: the same expression, bit for bit.  x < 0: with exp within
        # 1 ulp (2u relative, u = eps / 2), 1 / (1 + exp(-x)) is within 4u
        # of the exact value and the oracle's e / (1 + e) within 5u, so the
        # two lie within 9u = 4.5 eps of each other, relative to the
        # oracle's value (first order; 5 eps allows the rest).  Where the
        # exact value is below the smallest normal, exp(-x) may overflow
        # to inf and give 0.0: both read below it.  A nan stays a nan.
        tiny = np.finfo(np.float64).tiny
        special = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf,
                            np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310, 36.7, -36.7,
                            -708.0, -720.0])
        rng = np.random.default_rng(5)
        for x in (special, rng.normal(0, 4, (128, 16)), rng.normal(0, 400, (16, 16))):
            got, want = sigmoid(x), two_branch_sigmoid(x)
            pos, normal = x >= 0, want >= tiny
            assert np.array_equal(got[pos].view(np.uint64), want[pos].view(np.uint64))
            bound = 5 * np.finfo(np.float64).eps * want[normal]
            assert (np.abs(got[normal] - want[normal]) <= bound).all()
            low = ~pos & ~normal & ~np.isnan(x)
            assert ((got[low] >= 0.0) & (got[low] < tiny)).all()
            assert np.array_equal(np.isnan(got), np.isnan(x))

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        # absolute tolerance: near saturation the naive log loses relative
        # precision, which is exactly what the stable form avoids
        xs = np.linspace(-30, 30, 61)
        np.testing.assert_allclose(log_sigmoid(xs), np.log(sigmoid(xs)), atol=2e-16, rtol=1e-12)

    def test_log_sigmoid_stays_finite_when_sigmoid_underflows(self):
        assert log_sigmoid(-745.0) == -745.0
        assert math.isfinite(log_sigmoid(-5000.0))

    def test_softplus_identities(self):
        assert softplus(0.0) == pytest.approx(math.log(2), rel=1e-15)
        assert softplus(1000.0) == 1000.0
        np.testing.assert_allclose(softplus(50.0) - softplus(-50.0), 50.0, rtol=1e-15)


class TestGaussianQ:
    def test_frozen_quadrature_values(self):
        # frozen: numerical integration of the standard normal tail
        np.testing.assert_allclose(gaussian_q(0.0), 0.5, rtol=0, atol=0)
        np.testing.assert_allclose(gaussian_q(2.0), 0.0227501319481792072, rtol=1e-13)
        np.testing.assert_allclose(gaussian_q(0.5), 0.30853753872598689636, rtol=1e-13)

    def test_symmetry(self):
        for x in (0.3, 1.0, 2.5):
            assert gaussian_q(-x) == pytest.approx(1.0 - gaussian_q(x), abs=1e-15)


class TestEbn0Mapping:
    def test_zero_snr_gives_half(self):
        assert ebn0_to_epsilon(0.0) == 0.5

    def test_unit_snr_matches_q_of_two(self):
        assert ebn0_to_epsilon(1.0) == pytest.approx(0.0227501319481792072, rel=1e-13)

    def test_monotone_non_increasing(self):
        grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0]
        eps = [ebn0_to_epsilon(x) for x in grid]
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_large_snr_limit(self):
        assert ebn0_to_epsilon(1e9) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ebn0_to_epsilon(-0.1)

    def test_bpsk_form_pluggable(self):
        # at Eb/N0 = 2 the two conventions must differ: Q(4) vs Q(2)
        assert ebn0_to_epsilon(2.0, form="bpsk") == pytest.approx(gaussian_q(2.0), rel=1e-13)
        assert ebn0_to_epsilon(2.0, form="linear") == pytest.approx(gaussian_q(4.0), rel=1e-13)
        with pytest.raises(ValueError):
            ebn0_to_epsilon(1.0, form="cosmic")

    def test_db_conversion(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(float("-inf")) == 0.0
        # past the float range (about 3,083 dB) the ratio is inf, as at +inf
        # dB, so the channel is noiseless
        for db in (float("inf"), 3100.0, 4000.0, 1e308):
            assert db_to_linear(db) == math.inf
            assert ebn0_to_epsilon(db_to_linear(db)) == 0.0
        assert db_to_linear(3080.0) == pytest.approx(1e308, rel=1e-13)


def _rounding_bound(x, coeff):
    """Bound on the difference of two evaluations of the filter of x with
    these taps that each sum one step's products in some order: each is
    within gamma_m of the exact sum times the sum of the products'
    magnitudes, with m = taps + 1 roundings along any one product's path
    (its product and at most taps additions), so the two differ by at most
    twice that."""
    m = coeff.size + 1
    u = np.finfo(np.float64).eps / 2
    gamma = m * u / (1.0 - m * u)
    return 2 * gamma * tap_loop_filter(np.abs(x), np.abs(coeff))


def _feedback_traces(bits, kernel):
    """The rollout's feedback traces (n, steps, neurons) with these bits fed
    back, on a zero drive."""
    n, steps, k = bits.shape
    params = EncoderParams(np.zeros((k, 1)), np.zeros(k), np.zeros(k), kernel, kernel)
    return replay(params, np.zeros((n, steps, 1)), bits)[0].fb_traces


class TestCausalConvolve:
    """(a*x)[t] = sum_d a[d] * x[t-d], as the encoder's filters compute it:
    the kernel's banded product over whole sequences (Kernel.filter), the
    feedback filter at each step from strictly past bits."""

    def test_hand_expanded_example(self):
        k = Kernel([0.5, 0.25])
        x = np.array([1.0, 0.0, 1.0]).reshape(1, 3, 1)
        # t=2: 0.5 * x_2 + 0.25 * x_1
        assert k.filter(x)[0, 2, 0] == pytest.approx(0.5, abs=0)

    def test_history_shorter_than_kernel(self):
        k = Kernel([1.0, 2.0, 4.0])
        # at t=0 only the d=0 tap lands inside the history
        out = k.filter(np.array([3.0]).reshape(1, 1, 1))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(3.0)

    def test_history_ending_before_t_drops_current_tap(self):
        k = Kernel([0.5, 0.25])
        # the feedback trace at t=2 reads steps 0..1 only: d=1 pairs with
        # step 1, and the d=0 tap never meets step 2's bit
        bits = np.ones((1, 3, 1))
        assert _feedback_traces(bits, k)[0, 2, 0] == pytest.approx(0.25)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        k = Kernel(rng.normal(size=4))
        s = rng.normal(size=(2, 9, 3))
        r = rng.normal(size=(2, 9, 3))
        a, b = 1.7, -0.4
        lhs = k.filter(a * s + b * r)
        rhs = a * k.filter(s.copy()) + b * k.filter(r.copy())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        # the feedback trace reads bits, so it is linear over disjoint ones
        bits = rng.random((2, 9, 3)) < 0.5
        split = rng.random((2, 9, 3)) < 0.5
        lhs = _feedback_traces(bits, k)
        rhs = _feedback_traces(bits & split, k) + _feedback_traces(bits & ~split, k)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("samples", [1, 3, None])
    @pytest.mark.parametrize("window", [4, 30])
    def test_in_place_filter_equals_step_order(self, samples, window):
        # 1, 3 or all 40 samples of 12 steps by 256 lines: within rounding
        # of the tap loop, for windows shorter and longer than the 12 steps,
        # and with at most one float64 array of the traces' size made
        # besides them, and NumPy's ufunc buffers: two of getbufsize()
        # float64s at most
        rng = np.random.default_rng(window)
        counts = rng.poisson(0.7, size=(40, 12, 256)).astype(np.uint8)[:samples]
        kernel = exponential_kernel(3.0, window)
        x = counts.astype(np.float64)
        expected = tap_loop_filter(x, kernel.coefficients)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = kernel.filter(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float64 and out.shape == counts.shape
        assert (np.abs(out - expected) <= _rounding_bound(x, kernel.coefficients)).all()
        buffers = 2 * np.getbufsize() * out.itemsize
        assert peak - out.nbytes <= out.nbytes + buffers, f"peak {peak - out.nbytes} bytes"

    @pytest.mark.parametrize("part", ["below one sample", "3 samples", "all samples"])
    @pytest.mark.parametrize("window", [5, 30])
    def test_uint8_counts_filter_as_float64_counts(self, part, window):
        # random taps of both signs, the first negative; the counts are 7
        # of one sample's 40 lines, 3 of the 10 samples, or all of them:
        # uint8 counts cast to float64 filter within rounding of the tap
        # loop
        n, steps, lines = 10, 12, 40
        rng = np.random.default_rng(window)
        counts = rng.poisson(0.7, size=(n, steps, lines)).astype(np.uint8)
        taps = rng.normal(size=window)
        taps[0] = -abs(taps[0])
        kernel = Kernel(taps)
        counts = {"below one sample": counts[:1, :, :7], "3 samples": counts[:3],
                  "all samples": counts}[part]
        x = counts.astype(np.float64)
        expected = tap_loop_filter(x, kernel.coefficients)
        out = kernel.filter(x)
        assert out.dtype == np.float64 and out.shape == counts.shape
        assert (np.abs(out - expected) <= _rounding_bound(x, taps)).all()

    @pytest.mark.parametrize("steps", [1, 12, FILTER_BLOCK])
    def test_filter_is_one_product_with_the_cached_matrix(self, steps):
        # up to FILTER_BLOCK steps the filter's one block is the kernel's
        # (steps, steps) lower-triangular Toeplitz matrix times the counts,
        # bit for bit; the band it is sliced from is built once per lag,
        # C-contiguous and read-only
        kernel = exponential_kernel(3.0, 10)
        lag = min(10, steps) - 1
        counts = np.random.default_rng(steps).poisson(0.7, (3, steps, 5)).astype(np.float64)
        got = kernel.filter(counts)
        band = kernel.band(lag)
        assert kernel.band(lag) is band
        assert band.flags.c_contiguous and not band.flags.writeable
        assert band.dtype == np.float64 and band.shape == (FILTER_BLOCK, FILTER_BLOCK + lag)
        assert np.array_equal(band[:steps, lag : lag + steps], toeplitz(kernel, steps))
        want = np.matmul(toeplitz(kernel, steps), counts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("steps, window", [
        (FILTER_BLOCK + 1, 10), (200, 80), (4096, 10),
    ])
    def test_long_sequences_filter_in_blocks(self, steps, window):
        # past FILTER_BLOCK steps the product runs block by block against
        # one (FILTER_BLOCK, FILTER_BLOCK + taps - 1) band, within rounding
        # of the tap loop; at T = 4096 a (T, T) matrix would be 128 MB,
        # where the float64 counts and the traces take 0.5 MB
        rng = np.random.default_rng(steps)
        x = rng.poisson(0.7, size=(2, steps, 8)).astype(np.float64)
        kernel = exponential_kernel(3.0, window)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = kernel.filter(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert (np.abs(out - tap_loop_filter(x, kernel.coefficients))
                <= _rounding_bound(x, kernel.coefficients)).all()
        assert peak - 2 * out.nbytes <= 2**18, f"peak {peak} bytes"

    def test_exponential_kernel_shape(self):
        k = exponential_kernel(5.0, 10)
        assert k.coefficients.size == 10
        assert k.coefficients[0] == 1.0
        np.testing.assert_allclose(k.coefficients[5], math.exp(-1.0), rtol=1e-15)
        with pytest.raises(ValueError):
            exponential_kernel(0.0, 10)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel([])
        with pytest.raises(ValueError):
            Kernel([1.0, float("nan")])

    def test_kernels_compare_by_coefficients(self):
        assert exponential_kernel(5.0, 10) == exponential_kernel(5.0, 10)
        assert exponential_kernel(5.0, 10) != exponential_kernel(4.0, 10)
        assert exponential_kernel(5.0, 10) != exponential_kernel(5.0, 9)
        assert Kernel([1.0]) != None  # noqa: E711


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), 1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-8)

    def test_sigmoid_slope_at_zero(self):
        grad = finite_diff_grad(lambda v: sigmoid(float(v[0])), np.array([0.0]), 1e-5)
        assert grad[0] == pytest.approx(0.25, abs=1e-8)

    def test_multivariate_shape(self):
        f = lambda v: float(np.sum(v**2))
        x = np.arange(6, dtype=float).reshape(2, 3)
        grad = finite_diff_grad(f, x, 1e-6)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-6)

    def test_non_finite_reported(self):
        with pytest.raises(ArithmeticError):
            finite_diff_grad(lambda v: float("nan"), np.array([0.0]), 1e-5)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.array([0.0]), 0.0)


# 1 to 7 words of 32 bits; with an id of 1 or 2 words, SeedSequence's
# entropy runs from 2 words to 9, past its pool of 4
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200 + 12345]
STREAM_IDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _draws(gen) -> list[np.ndarray]:
    """Draws of each kind the program takes.  An odd count of bounded
    integers leaves half of a 64-bit draw buffered, and the first integers
    of a stream would read such a half left by the stream before."""
    return [gen.integers(0, 20001, size=3), gen.random(4), gen.poisson([0.5, 30.0]),
            gen.integers(0, 20001, size=5)]


def _assert_same_draws(gen, expected) -> None:
    for got, want in zip(_draws(gen), _draws(expected), strict=True):
        np.testing.assert_array_equal(got, want)


class TestSeededRng:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_seeding_equals_numpy(self, seed):
        # stream ids handed to the seeding straight, in two blocks
        blocks = [STREAM_IDS[:4], STREAM_IDS[4:]]
        for stream_id, gen in zip(STREAM_IDS, _generators(seed, blocks), strict=True):
            _assert_same_draws(gen, numpy_generator(seed, stream_id))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generator_equals_numpy(self, seed):
        for stream_id in STREAM_IDS:
            _assert_same_draws(SeededRng(seed, stream_id).generator,
                               numpy_generator(seed, stream_id))

    @pytest.mark.parametrize("indices", [range(0), range(5, 6),
                                         range(SEED_BLOCK - 4, 2 * SEED_BLOCK + 3)],
                             ids=["none", "one", "across-blocks"])
    def test_substreams_equal_numpy(self, indices):
        root = SeededRng(2**64 + 1, 7)
        streams = root.substreams("data", "test", 2, indices=indices)
        for i, gen in zip(indices, streams, strict=True):
            stream_id = root.substream("data", "test", 2, i).stream_id
            assert stream_id == fold_stream_id(7, "data", "test", 2, i)
            _assert_same_draws(gen, numpy_generator(2**64 + 1, stream_id))

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1), (-(2**70), 2**70)])
    def test_negative_seed_or_id_refused_as_numpy_does(self, seed, stream_id):
        with pytest.raises(ValueError):
            numpy_generator(seed, stream_id)
        with pytest.raises(ValueError):
            SeededRng(seed, stream_id).generator
        if seed < 0:  # a substream's id is a blake2b fold, never negative
            with pytest.raises(ValueError):
                next(SeededRng(seed, stream_id).substreams("eval", indices=range(3)))
    def test_same_pair_replays_identical_sequence(self):
        a = SeededRng(42, 7).generator.random(100)
        b = SeededRng(42, 7).generator.random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededRng(42, 0).generator.random(100)
        b = SeededRng(42, 1).generator.random(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = SeededRng(1).generator.random(100)
        b = SeededRng(2).generator.random(100)
        assert not np.array_equal(a, b)

    def test_substream_tags_are_order_sensitive(self):
        root = SeededRng(3)
        assert root.substream("a", 1).stream_id != root.substream(1, "a").stream_id
        assert root.substream("a", 1).stream_id == SeededRng(3).substream("a", 1).stream_id

    def test_fold_avoids_string_int_collisions(self):
        assert fold_stream_id("a", 1) != fold_stream_id("a1")
        assert fold_stream_id(12) != fold_stream_id("12")
        with pytest.raises(TypeError):
            fold_stream_id(1.5)

    def test_bernoulli_endpoints_exact(self):
        rng = SeededRng(0).generator
        assert bernoulli(rng, np.zeros(1000)).sum() == 0
        assert bernoulli(rng, np.ones(1000)).sum() == 1000

    def test_bernoulli_frequency(self):
        rng = SeededRng(11).generator
        draws = bernoulli(rng, np.full(200_000, 0.3))
        # 5 sigma band around 0.3 with n = 2e5
        assert abs(draws.mean() - 0.3) < 5 * math.sqrt(0.3 * 0.7 / 200_000)
