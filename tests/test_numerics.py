import itertools
import math
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpes import numerics
from cpes.numerics import (
    BLOCK_VALUES,
    DEGENERATE_NORM,
    SPLIT_VALUES,
    accepted_rows,
    all_finite,
    block_slices,
    cross_entropy,
    partial_shuffle,
    softmax,
    split_states,
    uniforms,
    unit_rows,
)
from cpes.selection import DistanceKind, similarity_sequence
from oracles import (
    GOLDEN,
    MASK64,
    ScalarRng,
    block,
    cosine,
    fisher_yates,
    masked_unit_rows,
    mix64,
    outputs,
    randint,
    randints,
    samples_without_replacement,
    scalar_rng,
    score_tensor,
    split_state,
    state_before,
    unmix64,
)

# First ten outputs of stream 0 of seed 20260826, recorded at first
# implementation; any change here is a cross-platform reproducibility break.
RNG_GOLDEN = [
    14151194533577837301,
    1764752882000663450,
    5130661244716949415,
    15262323811222170642,
    7047113240810441886,
    5865160177907348366,
    12146974203323086405,
    1831637498644311797,
    9502112046077871249,
    18360966139201038182,
]


class TestCosine:
    def test_identical_unit_vectors(self):
        assert cosine([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_analytic_inv_sqrt2(self):
        assert cosine([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2))

    def test_degenerate_vector_returns_zero(self):
        assert cosine([0, 0], [1, 0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^cosine: shapes \(2,\) vs \(3,\)$"):
            cosine([1, 0], [1, 0, 0])

    def test_symmetry_and_scale_invariance(self):
        rng = scalar_rng(1, 0)
        for _ in range(100):
            u = rng.normals(8)
            v = rng.normals(8)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-15)
            for alpha in (0.5, 3.0):
                assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-12)

    def test_bounded_fuzz(self):
        rng = scalar_rng(2, 0)
        for _ in range(10_000):
            u = rng.normals(6)
            v = rng.normals(6)
            assert abs(cosine(u, v)) <= 1 + 1e-12


# exactly zero, and nonzero but below DEGENERATE_NORM
@pytest.mark.parametrize("scale", [0.0, 1e-13])
@pytest.mark.parametrize("target", ["patch", "class embedding", "query row", "prototype row"])
def test_zero_norm_policy_on_package_path(target, scale):
    """A degenerate vector has cosine 0 with everything: a COS similarity of
    0, and a zero row or column in the score matrix."""
    rng = scalar_rng(3, 0)
    rows = rng.normals(12).reshape(3, 4)
    others = rng.normals(8).reshape(2, 4)
    if target in ("patch", "query row"):
        rows[1] *= scale
    else:
        others[0] *= scale
    if target in ("patch", "class embedding"):
        sims = similarity_sequence(others[0], rows, DistanceKind.COS)
        expected_zero = [False, True, False] if target == "patch" else [True] * 3
        np.testing.assert_array_equal(sims == 0.0, expected_zero)
    else:
        s = score_tensor(unit_rows(rows)[np.newaxis], [0], unit_rows(others)[np.newaxis])[0, 0]
        expected_zero = np.zeros((3, 2), dtype=bool)
        if target == "query row":
            expected_zero[1, :] = True
        else:
            expected_zero[:, 0] = True
        np.testing.assert_array_equal(s == 0.0, expected_zero)


@pytest.mark.parametrize(
    "shape", [(196, 384), (96, 384), (5, 196, 384), (600, 4, 32), (128, 16, 32), (0, 3), (3, 0)]
)
def test_unit_rows_equals_masked_divide(shape):
    """unit_rows divides by each norm, 1 for a degenerate row, and then zeroes
    those rows: bit for bit the masked divide into zeros, +0.0 included, with
    exactly zero, below-threshold and negative-zero rows among normal ones."""
    rows = scalar_rng(31, 0).normals(math.prod(shape)).reshape(shape)
    flat = rows.reshape(math.prod(shape[:-1]), shape[-1])
    for row, scale in zip(range(0, len(flat), 7), [0.0, 1e-14, -0.0, DEGENERATE_NORM / 2]):
        flat[row] *= scale
    got = unit_rows(rows)
    assert got.dtype == np.float64 and got.tobytes() == masked_unit_rows(rows).tobytes()


class TestAllFinite:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_any_non_finite_entry(self, dtype, value):
        for at in range(6):
            values = np.arange(6, dtype=dtype).reshape(2, 3)
            values.flat[at] = value
            assert not all_finite(values)
            assert all_finite(values[:, ::2]) == (at % 3 == 1)  # a strided view

    def test_finite_extremes_and_empty(self):
        big = np.finfo(np.float64).max
        assert all_finite(np.array([big, -big, 0.0, -0.0, 5e-324]))
        assert all_finite(np.array([np.finfo(np.float32).max], dtype=np.float32))
        assert all_finite(np.zeros((0, 4))) and all_finite(np.zeros(0, dtype=np.float32))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "dtype,value", [(np.float32, 3e38), (np.float32, -3e38), (np.float64, -1.5e308)]
    )
    @pytest.mark.parametrize("shape", [(4, 3), (7,), (SPLIT_VALUES // 2, 2)])
    def test_finite_values_whose_sums_overflow(self, score_threads, threads, dtype, value, shape):
        """Finite values whose sums (or, 1-D, sums of squares) overflow are finite, with and
        without ``out``, on each part of a split array too, and no numpy warning escapes."""
        score_threads(threads)
        values = np.full(shape, value, dtype)
        with np.errstate(over="ignore"):
            assert not np.isfinite(values.sum(dtype=dtype))
        with np.errstate(all="raise"):
            assert all_finite(values) and all_finite(values, np.empty(shape, dtype))
            values.flat[-1] = np.nan
            assert not all_finite(values) and not all_finite(values, np.empty(shape, dtype))

    # layout -> (its zero values for n leading-axis items, items a block holds); a wide
    # record (2 patches of BLOCK_VALUES / 2 + 3 values) is a block of its own
    LAYOUTS = {
        "contiguous": (lambda n, t: np.zeros(n, t), BLOCK_VALUES),
        "cpem_wide_records": (lambda n, t: _cpem_patches(n, 2, BLOCK_VALUES // 2 + 3, t), 1),
        "cpem_narrow_records": (lambda n, t: _cpem_patches(n, 4, 8, t), BLOCK_VALUES // 32),
        "strided": (lambda n, t: np.zeros((2 * n, 6), t)[::2, 1::2], BLOCK_VALUES // 3),
    }
    # size -> (leading-axis items in blocks, and one more item; blocks; threads); the
    # split sizes hold more than SPLIT_VALUES values in every layout
    SPLIT_BLOCKS = SPLIT_VALUES // BLOCK_VALUES + 1
    SIZES = {"one_block": (1, 0, 1, 1), "k_blocks": (3, 0, 3, 1), "k_blocks_and_1": (3, 1, 4, 1),
             "empty": (0, 0, 0, 1), "split_2_threads": (SPLIT_BLOCKS, 1, SPLIT_BLOCKS + 1, 2),
             "split_3_threads": (SPLIT_BLOCKS, 1, SPLIT_BLOCKS + 1, 3)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("size", SIZES)
    def test_block_edges_equal_oracle(self, score_threads, dtype, layout, size):
        """NaN, +inf and -inf at the first and last value of every block (an array above
        SPLIT_VALUES is one part a forced thread, each cut into blocks where it is copied to
        ``out``, and there the edges are those of each part's first and last block), and at
        the last value: all_finite, with and without ``out``, is the oracle
        np.isfinite(values).all(); a finite array is copied to ``out`` whole."""
        make, per_block = self.LAYOUTS[layout]
        blocks, extra, count, threads = self.SIZES[size]
        pool = score_threads(threads)
        values = make(blocks * per_block + extra, dtype)
        values[...] = (np.arange(values.size) % 7 - 3.5).reshape(values.shape)
        item = values[:1].size
        # each thread's part, and its blocks where they are copied to ``out``
        cuts = [len(values) * i // threads for i in range(threads + 1)]
        parts = [[(a + edge.start, a + min(edge.stop, b - a)) for edge in block_slices(b - a, item)]
                 for a, b in zip(cuts, cuts[1:])]
        assert sum(map(len, parts)) == count and (values.size >= SPLIT_VALUES) == (threads > 1)
        # a split array's parts: their first and last blocks, whose edges meet the cuts
        edges = [edge for part in parts
                 for edge in (part if threads == 1 else part[:1] + part[-1:])]
        out = np.empty(values.shape, dtype)
        assert all_finite(values) and all_finite(values, out) and np.isfinite(values).all()
        assert out.tobytes() == np.ascontiguousarray(values).tobytes()
        assert len(pool.futures) == 2 * (threads - 1)
        firsts = [start * item for start, _ in edges]
        lasts = [stop * item - 1 for _, stop in edges]
        for at in sorted(set(firsts + lasts + [values.size - 1])) if values.size else []:
            where = np.unravel_index(at, values.shape)
            for value in (np.nan, np.inf, -np.inf):
                values[where] = value
                expected = bool(np.isfinite(values).all())
                assert not expected
                assert all_finite(values) == expected
                assert all_finite(values, np.empty(values.shape, dtype)) == expected
            values[where] = 0.5

    def test_more_threads_than_cores_switching_often(self, score_threads):
        """Five threads, switched every microsecond, each copying its own part to
        ``out``: every value is copied once, and a NaN in any part is found."""
        pool = score_threads(5)
        values = (np.arange(SPLIT_VALUES + 7) % 5 - 2.5).reshape(-1, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = np.empty_like(values)
            assert all_finite(values, out) and out.tobytes() == values.tobytes()
            for at in np.linspace(0, len(values) - 1, 9).astype(int):
                values[at] = np.nan
                assert not all_finite(values) and not all_finite(values, np.empty_like(values))
                values[at] = 0.0
        finally:
            sys.setswitchinterval(interval)
        assert pool.futures and all(future.done() for future in pool.futures)

    @pytest.mark.parametrize("at", ["caller", "pool"])
    def test_a_part_the_pool_never_starts_is_checked_by_the_caller(self, monkeypatch, at):
        """A part whose future the pool never runs is cancelled once the caller's part is
        checked, and the caller checks it: a NaN in it is found, in the caller's too."""
        futures = []

        class IdlePool:
            def submit(self, *args):
                futures.append(Future())
                return futures[-1]

        monkeypatch.setattr(numerics, "_THREADS", 2)
        monkeypatch.setattr(numerics, "_pool", lambda: IdlePool())
        values = np.ones((SPLIT_VALUES // 64, 64), np.float32)
        assert all_finite(values) and all_finite(values, np.empty_like(values))
        values[0 if at == "caller" else -1, -1] = np.nan
        assert not all_finite(values) and not all_finite(values, np.empty_like(values))
        assert len(futures) == 4 and all(future.cancelled() for future in futures)


def _cpem_patches(records: int, patches_m: int, dim_d: int, dtype) -> np.ndarray:
    """The patch field of ``records`` zero records laid out as a CPEM body is:
    an 8-byte id and a 4-byte label, then the class embedding and patches."""
    layout = [("id", "<u8"), ("label", "<u4"), ("class", dtype, (dim_d,)),
              ("patches", dtype, (patches_m, dim_d))]
    return np.zeros(records, np.dtype(layout))["patches"]


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(5)), np.full(5, 0.2), atol=1e-15)

    def test_shift_invariant_analytic_ratio(self):
        for c in (-100.0, 0.0, 42.5):
            out = softmax(np.array([c, c + math.log(3)]))
            np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_overflow_safety(self):
        np.testing.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=10),
        st.floats(-30, 30),
    )
    def test_shift_invariance_property(self, scores, shift):
        a = softmax(np.array(scores))
        b = softmax(np.array(scores) + shift)
        assert np.all(np.abs(a - b) < 1e-12)
        assert abs(a.sum() - 1.0) < 1e-12
        assert np.all(a > 0)


class TestCrossEntropy:
    def test_uniform_is_ln_n(self):
        for target in range(5):
            assert cross_entropy(np.full(5, 0.2), target) == pytest.approx(math.log(5))

    def test_certain_prediction(self):
        assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0

    def test_minus_ln_075(self):
        assert cross_entropy(np.array([0.25, 0.75]), 1) == pytest.approx(-math.log(0.75))

    def test_nonnegative(self):
        rng = scalar_rng(3, 0)
        for _ in range(200):
            p = softmax(rng.normals(6))
            assert cross_entropy(p, rng.randint(6)) >= 0.0


class TestRng:
    def test_golden_vector(self):
        state = int(split_states(20260826, [0])[0])
        assert block(state, 10)[0].tolist() == RNG_GOLDEN
        assert list(itertools.islice(outputs(state), 10)) == RNG_GOLDEN

    def test_same_split_same_stream(self):
        assert split_states(99, [0, 0]).tolist() == 2 * split_states(99, [0]).tolist()

    def test_distinct_indices_distinct_streams(self):
        xs, ys = (block(int(state), 64)[0] for state in split_states(99, [0, 1]))
        assert np.all(xs != ys)

    def test_creation_order_irrelevant(self):
        assert split_states(7, [5, 6]).tolist()[0] == split_states(7, [6, 5]).tolist()[1]

    def test_block_matches_scalar_path(self):
        """Two blocks in a row are the Python-int outputs in a row."""
        first, state = block(12345, 17)
        second, state = block(state, 5)
        expected = list(itertools.islice(outputs(12345), 22))
        assert np.concatenate([first, second]).tolist() == expected
        assert state == (12345 + 22 * GOLDEN) & MASK64

    def test_finalizer_inverse(self):
        for x in [0, 1, MASK64] + block(split_state(6, 0), 200)[0].tolist():
            assert unmix64(mix64(x)) == x == mix64(unmix64(x))
        assert list(itertools.islice(outputs(split_state(20260826, 0)), 10)) == RNG_GOLDEN

    @pytest.mark.parametrize("n", [3, 15, 30])
    def test_rejected_draw_is_discarded(self, n):
        """2**64 - 1 is at or above randint's limit for these n, so a draw
        that meets it takes the next output instead: exactly two outputs."""
        state = state_before(MASK64)
        top, following = itertools.islice(outputs(state), 2)
        assert top == MASK64 >= (1 << 64) - (1 << 64) % n
        values, after = randints(state, [n])
        assert values == [following % n] == [randint(outputs(state), n)]
        assert after == (state + 2 * GOLDEN) & MASK64
        for k in (1, n):
            expected = fisher_yates(outputs(state), n, k)
            assert samples_without_replacement(state, [range(n)], k)[0] == [expected]

    def test_block_draw_equals_scalar_draws(self):
        """randints(bounds) returns what successive oracle draws return and
        leaves the state where they leave it, with or without a rejected
        word: above 2**62 a bound rejects words with odds up to about 1/3."""
        g = scalar_rng(14, 0)
        rejected = 0
        for _ in range(300):
            bounds = [1 + g.randint(1 << g.randint(64)) for _ in range(g.randint(40))]
            state = g.next_u64()
            scalar = ScalarRng(state)
            values, after = randints(state, bounds)
            assert values == [scalar.randint(n) for n in bounds]
            assert after == scalar.state
            rejected += after != (state + len(bounds) * GOLDEN) & MASK64
        assert 0 < rejected < 300

    @pytest.mark.parametrize("n", [3, 15, 30])
    @pytest.mark.parametrize("before", [0, 1, 5])
    def test_block_draw_discards_rejected_word(self, n, before):
        """The block's word number ``before`` is 2**64 - 1, which a draw from
        [0, n) rejects: the block takes the next word instead, like the
        Python-int oracle draw by draw, and ends one word further on."""
        state = (state_before(MASK64) - before * GOLDEN) & MASK64
        scalar = ScalarRng(state)
        values, after = randints(state, [n] * 8)
        draws = outputs(state)
        assert values == [scalar.randint(n) for _ in range(8)]
        assert values == [randint(draws, n) for _ in range(8)]
        assert after == scalar.state == (state + 9 * GOLDEN) & MASK64

    def test_block_draw_rejects_empty_bound(self):
        with pytest.raises(ValueError, match="^randints needs bounds >= 1, got 0$"):
            randints(1, [3, 0])
        assert randints(1, []) == ([], 1)

    def test_pool_samples_equal_oracle(self):
        """samples_without_replacement maps one partial Fisher-Yates per pool
        through the pool, the pools' draws following each other in one
        stream, a rejected word included."""
        g = scalar_rng(15, 0)
        for trial in range(60):
            sizes = [1 + g.randint(12) for _ in range(1 + g.randint(6))]
            k = g.randint(min(sizes) + 1)
            pools = [list(range(100 * p, 100 * p + size)) for p, size in enumerate(sizes)]
            # odd trials meet 2**64 - 1 as one of their first seven words
            state = (state_before(MASK64) - trial % 7 * GOLDEN) & MASK64
            state = state if trial % 2 else g.next_u64()
            draws = outputs(state)
            expected = [[pool[i] for i in fisher_yates(draws, len(pool), k)] for pool in pools]
            assert samples_without_replacement(state, pools, k)[0] == expected

    def test_accepted_words_equal_word_by_word_draws(self):
        """accepted_rows gives each bound n of a row in turn the first word at
        most 2**64 - 1 - 2**64 % n, as word by word draws do, and leaves the
        state where they do: a bound of 1 takes any word, and one above 2**62
        rejects words with odds up to about 1/3."""
        g = scalar_rng(16, 0)
        rejected = 0
        for _ in range(200):
            bounds = [1 + g.randint(1 << g.randint(64)) for _ in range(g.randint(30))]
            state = g.next_u64()
            scalar = ScalarRng(state)
            row = np.array([bounds], dtype=np.uint64)
            out, after = accepted_rows(np.array([state], np.uint64), row)
            draws = iter(scalar.next_u64, None)
            limits = [MASK64 - (1 << 64) % n for n in bounds]
            assert out[0].tolist() == [next(x for x in draws if x <= limit) for limit in limits]
            assert int(after[0]) == scalar.state
            rejected += scalar.state != (state + len(bounds) * GOLDEN) & MASK64
        assert 0 < rejected < 200

    def test_uniform_range(self):
        us = uniforms(split_state(4, 0), 10_000)
        assert np.all((us >= 0) & (us < 1))

    def test_sample_without_replacement(self):
        state = split_state(5, 0)
        for _ in range(100):
            (picks,), state = samples_without_replacement(state, [range(10)], 7)
            assert len(set(picks)) == 7
            assert all(0 <= p < 10 for p in picks)


class TestRowKernels:
    """The row-wise forms the episode plan and the generator draw through:
    stream states, accepted words and the partial Fisher-Yates, each against
    the Python-int oracle."""

    def test_split_states_equal_scalar_splits(self):
        """Seeds are taken modulo 2**64, and no uint64 scalar overflows (a
        RuntimeWarning fails the suite)."""
        seeds = [0, 1, -1, 10**12, (1 << 64) - 1, 1 << 70, split_state(0, 1)]
        indices = [0, 1, 2, 1000, (1 << 64) - 1]
        for seed in seeds:
            expected = [split_state(seed, i) for i in indices]
            assert split_states(seed, indices).tolist() == expected
            assert split_states(seed, indices).dtype == np.uint64
        assert split_states(-1, [7]).tolist() == split_states((1 << 64) - 1, [7]).tolist()
        assert split_states(20260826, range(0)).shape == (0,)

    def test_accepted_rows_equal_one_row_draws(self):
        """Each row is drawn as it is on its own, states after included:
        above 2**62 a bound rejects words with odds up to about 1/3."""
        g = scalar_rng(17, 0)
        rejected = 0
        for _ in range(40):
            tasks, width = g.randint(9), 1 + g.randint(12)
            states = np.array([g.next_u64() for _ in range(tasks)], dtype=np.uint64)
            bounds = [1 + g.randint(1 << g.randint(64)) for _ in range(tasks * width)]
            bounds = np.array(bounds, dtype=np.uint64).reshape(tasks, width)
            out, after = accepted_rows(states, bounds)
            for row in range(tasks):
                alone, state = accepted_rows(states[row : row + 1], bounds[row : row + 1])
                assert out[row].tolist() == alone[0].tolist()
                assert after[row] == state[0]
                rejected += int(state[0]) != (int(states[row]) + width * GOLDEN) & MASK64
        assert rejected > 0

    def test_accepted_rows_redraw_only_the_rejecting_row(self):
        state = state_before(MASK64) - 2 * GOLDEN & MASK64
        states = np.array([5, state, 7], dtype=np.uint64)
        bounds = np.full((3, 4), 3, dtype=np.uint64)
        out, after = accepted_rows(states, bounds)
        draws = outputs(state)
        assert (out[1] % 3).tolist() == [randint(draws, 3) for _ in range(4)]
        steps = zip([5, state, 7], [4, 5, 4])
        assert after.tolist() == [(start + n * GOLDEN) & MASK64 for start, n in steps]

    def test_samples_beyond_a_pool_rejected(self):
        with pytest.raises(ValueError, match="^3 samples from a pool of 2 items$"):
            samples_without_replacement(1, [range(3), range(2)], 3)
        assert samples_without_replacement(1, [], 3) == ([], 1)

    def test_partial_shuffle_equals_oracle_on_padded_pools(self):
        """Each task's pools, of unequal sizes and padded to the largest, are
        the oracle Fisher-Yates of each pool in turn on the task's stream,
        which ends where the oracle's draws leave it; odd trials meet
        2**64 - 1 as one of a task's first seven words."""
        g = scalar_rng(18, 0)
        for trial in range(60):
            tasks, rows = g.randint(5), 1 + g.randint(4)
            sizes = np.array([1 + g.randint(12) for _ in range(rows * tasks)]).reshape(tasks, rows)
            k = g.randint(int(sizes.min(initial=12)) + 1)
            rejecting = (state_before(MASK64) - trial % 7 * GOLDEN) & MASK64
            states = [rejecting if trial % 2 else g.next_u64() for _ in range(tasks)]
            pools = np.full((tasks, rows, 12), -1)
            for task, row in np.ndindex(tasks, rows):
                pools[task, row, : sizes[task, row]] = 100 * row + np.arange(sizes[task, row])
            picks, after = partial_shuffle(np.array(states, np.uint64), pools, sizes, k)
            assert picks.shape == (tasks, rows, k)
            for task, state in enumerate(states):
                scalar = ScalarRng(state)
                for row, size in enumerate(sizes[task].tolist()):
                    expected = [100 * row + i for i in scalar.sample_without_replacement(size, k)]
                    assert picks[task, row].tolist() == expected
                assert int(after[task]) == scalar.state
            assert (pools[..., 0] % 100 == 0).all()  # the input is left as it was
