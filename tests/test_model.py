"""Target model: cache consistency, tree-masked attention, sampling, cache surgery.

The cached ``forward`` runs tape-free; every parity check here compares it
with the taped, cache-free ``forward_batch``. A causal ``forward`` returns
only its last new token's row."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amphista import nn
from amphista import tensor as T
from amphista.model import ModelConfig, TargetModel, sample
from amphista.nn import BLOCK
from amphista.speculation import TreeTopology, build_mask, preset_topology
from amphista.tensor import DimensionError, NonFiniteError, Tensor

from conftest import TINY_MODEL, make_tiny_model, random_tree_paths

PARITY = 1e-12  # tape-free cached forward vs the taped forward_batch


def uncached(model, tokens) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, logits) of the taped, cache-free forward over one sequence."""
    with T.no_grad():
        out = model.forward_batch(np.asarray([tokens]))
    return out.hidden.data[0], out.logits.data[0]


def assert_parity(out, hidden, logits):
    assert np.abs(out.hidden - hidden).max() <= PARITY
    assert np.abs(out.logits - logits).max() <= PARITY


class TestForward:
    def test_prefill_then_step_matches_uncached(self):
        model = make_tiny_model()
        tokens = list(np.random.default_rng(0).integers(0, 24, size=11))
        cache = model.new_cache()
        model.forward(tokens[:10], cache)
        step = model.forward(tokens[10:], cache)
        hidden, logits = uncached(model, tokens)
        assert_parity(step, hidden[-1:], logits[-1:])

    @given(st.integers(1, 11))
    def test_cache_consistency_any_split(self, split):
        model = make_tiny_model()
        tokens = list(np.random.default_rng(1).integers(0, 24, size=12))
        cache = model.new_cache()
        first = model.forward(tokens[:split], cache)
        out = model.forward(tokens[split:], cache)
        hidden, logits = uncached(model, tokens)
        assert_parity(first, hidden[split - 1 : split], logits[split - 1 : split])
        assert_parity(out, hidden[-1:], logits[-1:])

    def test_chain_mask_equals_sequential(self):
        model = make_tiny_model()
        prompt = [1, 2, 3]
        chain_tokens = [9, 5, 6, 7, 8]  # root + 4 chained drafts
        topo = preset_topology("chain")
        mask = build_mask(topo)
        assert mask.sum() == np.tril(np.ones((5, 5))).sum()

        seq_cache = model.new_cache()
        model.forward(prompt, seq_cache)
        seq_rows = [model.forward([tok], seq_cache).logits[0] for tok in chain_tokens]

        tree_cache = model.new_cache()
        model.forward(prompt, tree_cache)
        tout = model.forward(chain_tokens, tree_cache, mask=mask, positions=3 + np.arange(5))
        assert np.abs(np.stack(seq_rows) - tout.logits).max() <= PARITY
        hidden, logits = uncached(model, prompt + chain_tokens)
        assert_parity(tout, hidden[3:], logits[3:])

    @pytest.mark.parametrize("tree", ["cart45", "searched", "random-wider-than-a-block"])
    def test_tree_mask_matches_tape_forward(self, tree):
        """Each tree node's hidden state and logits equal the taped forward
        over the prompt followed by that node's root-to-node path; a tree of
        more than BLOCK nodes spans several query blocks."""
        model = make_tiny_model()
        rng = np.random.default_rng(2)
        prompt = list(rng.integers(0, 24, size=6))
        if tree.startswith("random"):
            topo = TreeTopology.from_paths(random_tree_paths(rng, BLOCK + 10, max_depth=5))
        else:
            topo = preset_topology(tree)
        tokens = rng.integers(0, 24, size=topo.node_count)
        cache = model.new_cache()
        model.forward(prompt, cache)
        tout = model.forward(tokens, cache, mask=topo.mask, positions=6 + np.asarray(topo.depth))
        for node in range(topo.node_count):
            path = [node]
            while topo.parent[path[-1]] >= 0:
                path.append(topo.parent[path[-1]])
            hidden, logits = uncached(model, prompt + [int(tokens[i]) for i in reversed(path)])
            assert np.abs(tout.hidden[node] - hidden[-1]).max() <= PARITY
            assert np.abs(tout.logits[node] - logits[-1]).max() <= PARITY

    def test_nan_weight_raises_before_output(self):
        model = make_tiny_model()
        model.layers[1].ffn.w1.weight.data[3, 5] = np.nan
        with pytest.raises(NonFiniteError, match=r"hidden states of shape \(1, 16\)"):
            model.forward([1, 2, 3], model.new_cache())
        model.freeze()
        with pytest.raises(NonFiniteError, match=r"tensor of shape \(1, 3, 16\)"):
            model.forward_batch(np.array([[1, 2, 3]]))

    def test_token_out_of_range(self):
        model = make_tiny_model()
        for bad in ([1, TINY_MODEL.vocab_size], [-1, 2]):
            with pytest.raises(IndexError):
                model.forward(bad, model.new_cache())

    def test_empty_tokens_error(self):
        model = make_tiny_model()
        with pytest.raises(DimensionError):
            model.forward([], model.new_cache())

    def test_max_seq_len_overflow(self):
        model = make_tiny_model()
        cache = model.new_cache()
        with pytest.raises(DimensionError):
            with T.no_grad():
                model.forward([0] * (TINY_MODEL.max_seq_len + 1), cache)

    def test_mask_needs_positions_and_square(self):
        model = make_tiny_model()
        cache = model.new_cache()
        mask = np.eye(3, dtype=bool)
        with pytest.raises(DimensionError):
            model.forward([1, 2, 3], cache, mask=mask)  # no positions
        with pytest.raises(DimensionError):
            model.forward([1, 2], cache, mask=mask, positions=[0, 1])

    def test_mask_above_the_diagonal_rejected_before_any_work(self):
        model = make_tiny_model()
        cache = model.new_cache()
        model.forward([1, 2, 3], cache)
        mask = np.tril(np.ones((4, 4), dtype=bool))
        mask[1, 2] = True  # node 1 would see the later node 2
        with pytest.raises(DimensionError, match="above the diagonal"):
            model.forward([4, 5, 6, 7], cache, mask=mask, positions=3 + np.arange(4))
        assert cache.length == 3

    def test_determinism_bit_identical(self):
        a = uncached(make_tiny_model(seed=5), [1, 2, 3, 4])[1]
        b = uncached(make_tiny_model(seed=5), [1, 2, 3, 4])[1]
        assert a.tobytes() == b.tobytes()

    def test_forward_batch_matches_single(self):
        model = make_tiny_model()
        tokens = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        with T.no_grad():
            batch = model.forward_batch(tokens)
        for b in range(2):
            single = model.forward(list(tokens[b]), model.new_cache())
            assert_parity(single, batch.hidden.data[b, -1:], batch.logits.data[b, -1:])

    @pytest.mark.parametrize(
        "dtype, shape",
        [
            (np.float32, (4, 40)),
            (np.float64, (4, 40)),
            (np.float32, (1, BLOCK)),
            (np.float64, (1, BLOCK)),
            (np.float64, (2, BLOCK + 1)),
        ],
    )
    def test_frozen_forward_batch_is_tape_free_and_matches_the_tape(
        self, monkeypatch, dtype, shape
    ):
        """A frozen target runs forward_batch through no taped op; up to one
        BLOCK it gives the bits of its unfrozen twin's taped forward_batch."""
        config = replace(TINY_MODEL, max_seq_len=2 * BLOCK)
        with T.dtype_context(dtype):
            taped, frozen = make_tiny_model(config=config), make_tiny_model(config=config)
        frozen.freeze()
        tokens = np.random.default_rng(shape[1]).integers(0, 24, size=shape)
        want = taped.forward_batch(tokens)
        assert want.logits.requires_grad
        monkeypatch.setattr(T, "_result", None)  # every taped op builds its output here
        got = frozen.forward_batch(tokens)
        for a, b in ((want.hidden, got.hidden), (want.logits, got.logits)):
            assert b.data.dtype == dtype and b.shape == a.shape
            if shape[1] <= BLOCK:
                assert np.array_equal(a.data, b.data)
            else:
                assert np.abs(a.data - b.data).max() <= PARITY

    def test_logits_are_lm_head_of_hidden(self):
        model = make_tiny_model()
        with T.no_grad():
            out = model.forward([1, 2, 3], model.new_cache())
            recomputed = T.matmul(Tensor(out.hidden), model.lm_head.weight)
        assert np.array_equal(recomputed.data, out.logits)


class TestRejectsBeforeAnyWork:
    """Each bad input to ``forward`` raises, and the cache keeps the length
    of its 3-token prefill."""

    def prefilled(self):
        model = make_tiny_model()
        cache = model.new_cache()
        model.forward([1, 2, 3], cache)
        return model, cache

    @pytest.mark.parametrize("bad", [TINY_MODEL.vocab_size, -1])
    def test_one_token_id_out_of_range(self, bad):
        model, cache = self.prefilled()
        with pytest.raises(IndexError):
            model.forward([bad], cache)
        assert cache.length == 3

    @pytest.mark.parametrize("bad", [-1, TINY_MODEL.max_seq_len])
    def test_tree_position_out_of_range(self, bad):
        model, cache = self.prefilled()
        topo = preset_topology("searched")
        positions = 3 + topo.depth_array
        positions[-1] = bad
        with pytest.raises(IndexError, match="position id"):
            model.forward(np.arange(topo.node_count), cache, mask=topo.mask, positions=positions)
        assert cache.length == 3

    @pytest.mark.parametrize("tree", [False, True])
    def test_nan_weight_on_a_step_and_a_tree(self, tree):
        model, cache = self.prefilled()
        model.layers[1].ffn.w1.weight.data[3, 5] = np.nan
        topo = preset_topology("searched")
        rows = topo.node_count if tree else 1
        with pytest.raises(NonFiniteError, match=rf"hidden states of shape \({rows}, 16\)"):
            if tree:
                model.forward(
                    np.arange(topo.node_count), cache, mask=topo.mask, positions=3 + topo.depth_array
                )
            else:
                model.forward([4], cache)
        assert cache.length == 3


class TestBlockedAttention:
    """The cached forward runs attention in blocks of BLOCK query rows; at
    and across block boundaries it still matches the taped forward_batch."""

    @pytest.mark.parametrize("prefix", [0, 30])
    @pytest.mark.parametrize("t", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_matches_tape_forward_at_block_boundaries(self, prefix, t):
        """The forward returns only its last row; the 1-token step after it
        reads the last layer's cached keys and values of every row."""
        model = make_tiny_model(config=replace(TINY_MODEL, max_seq_len=3 * BLOCK))
        tokens = list(np.random.default_rng(t).integers(0, 24, size=prefix + t + 1))
        cache = model.new_cache()
        if prefix:
            model.forward(tokens[:prefix], cache)
        out = model.forward(tokens[prefix:-1], cache)
        step = model.forward(tokens[-1:], cache)
        hidden, logits = uncached(model, tokens)
        assert_parity(out, hidden[-2:-1], logits[-2:-1])
        assert_parity(step, hidden[-1:], logits[-1:])

    def test_random_tree_masks_are_lower_triangular(self):
        rng = np.random.default_rng(3)
        for n in range(5, 65):
            mask = build_mask(TreeTopology.from_paths(random_tree_paths(rng, n, max_depth=6)))
            assert not np.triu(mask, k=1).any()


def two_exp_silu(x):
    """The reference silu: x times the two-exp sigmoid exp(min(x, 0)) /
    (1 + exp(-|x|)), overflow-free on both tails."""
    return x * (np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x))))


class TestSilu:
    """Both silu paths share the one-exp ``T.sigmoid``; each must give the
    two-exp reference's bits."""

    @pytest.mark.parametrize("rows", [1, 8, 384])
    def test_array_silu_is_the_taped_silu_bit_for_bit(self, rows):
        x = np.random.default_rng(rows).standard_normal((rows, 256)) * 30.0
        special = [0.0, -0.0, 1e3, -1e3, 5e-324, -5e-324, 1e-310, -1e-310, 745.0, -745.0,
                   1e308, -1e308, 40.0, -40.0]
        x.flat[: len(special)] = special
        want = two_exp_silu(x)
        for got in (nn.silu(x), T.silu(Tensor(x)).data):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_array_silu_bit_for_bit_at_the_edges(self, dtype):
        sub = np.finfo(dtype).smallest_subnormal
        edges = [0.0, -0.0, sub, -sub, 1e3 * sub, -1e3 * sub, 800.0, -800.0, 1.0, -1.0]
        x = np.concatenate(
            [np.array(edges, dtype=dtype), np.linspace(-120, 120, 2001, dtype=dtype)]
        )
        want = two_exp_silu(x)
        for got in (nn.silu(x), T.silu(Tensor(x)).data):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSample:
    def test_argmax(self):
        assert sample(np.array([0.0, 5.0, 0.0]), 0.0) == 1

    def test_tie_break_lowest_index(self):
        assert sample(np.array([2.0, 2.0, 2.0]), 0.0) == 0

    def test_negative_temperature(self):
        with pytest.raises(ValueError):
            sample(np.array([0.0, 1.0]), -0.5)

    def test_categorical_frequencies_match_analytic(self):
        logits = np.array([0.0, np.log(3.0)])
        rng = np.random.default_rng(123)
        draws = sum(sample(logits, 1.0, rng) for _ in range(100_000))
        assert draws / 100_000 == pytest.approx(0.75, abs=0.01)


class TestCacheSurgery:
    def test_truncate_then_replay(self):
        model = make_tiny_model()
        cache = model.new_cache()
        with T.no_grad():
            model.forward([1, 2, 3], cache)
            model.forward([4, 5, 6, 7, 8], cache)
            cache.truncate(6)
            replay = [model.forward([tok], cache).logits[0] for tok in (7, 8)]
        _, ref = uncached(model, [1, 2, 3, 4, 5, 6, 7, 8])
        for row, want in zip(replay, ref[6:], strict=True):  # tokens 7 and 8
            assert np.abs(row - want).max() <= PARITY

    def test_truncate_to_zero_equals_fresh(self):
        model = make_tiny_model()
        cache = model.new_cache()
        model.forward([1, 2, 3, 4], cache)
        cache.truncate(0)
        again = model.forward([1, 2, 3], cache)
        fresh = model.forward([1, 2, 3], model.new_cache())
        assert np.array_equal(again.logits, fresh.logits)

    def test_truncate_noop_and_bounds(self):
        model = make_tiny_model()
        cache = model.new_cache()
        with T.no_grad():
            model.forward([1, 2, 3], cache)
        cache.truncate(3)
        assert cache.length == 3
        with pytest.raises(DimensionError):
            cache.truncate(4)

    def test_select_path_chain_equals_sequential_cache(self):
        model = make_tiny_model()
        topo = preset_topology("chain")
        tokens = [3, 4, 5, 6]

        tree_cache = model.new_cache()
        with T.no_grad():
            model.forward([1, 2], tree_cache)
            model.forward(
                [9] + tokens,
                tree_cache,
                mask=build_mask(topo),
                positions=2 + np.asarray([0, 1, 2, 3, 4]),
            )
        tree_cache.select_path(2, [0, 1, 2, 3, 4])
        assert tree_cache.length == 7

        seq_cache = model.new_cache()
        with T.no_grad():
            model.forward([1, 2], seq_cache)
            for tok in [9] + tokens:
                model.forward([tok], seq_cache)
        for lt, ls in zip(tree_cache.layers, seq_cache.layers):
            assert np.abs(lt.k - ls.k).max() <= 1e-6
            assert np.abs(lt.v - ls.v).max() <= 1e-6

    def test_select_root_only(self):
        model = make_tiny_model()
        topo = preset_topology("cart45")
        cache = model.new_cache()
        with T.no_grad():
            model.forward([1, 2, 3], cache)
            tokens = np.zeros(topo.node_count, dtype=np.int64)
            model.forward(
                tokens, cache, mask=build_mask(topo), positions=3 + np.asarray(topo.depth)
            )
        cache.select_path(3, [0])
        assert cache.length == 4

    def test_next_logits_after_select_match_sequential(self):
        model = make_tiny_model()
        rng = np.random.default_rng(7)
        prompt = [1, 2, 3, 4]
        topo = preset_topology("searched")
        tokens = rng.integers(0, 24, size=topo.node_count)

        cache = model.new_cache()
        with T.no_grad():
            model.forward(prompt, cache)
            model.forward(
                tokens, cache, mask=build_mask(topo), positions=4 + np.asarray(topo.depth)
            )
        # accept the path root -> first child -> its first child
        children = topo.children
        path = [0, children[0][0], children[children[0][0]][0]]
        cache.select_path(4, path)
        with T.no_grad():
            after = model.forward([5], cache).logits[0]

        seq_cache = model.new_cache()
        with T.no_grad():
            model.forward(prompt, seq_cache)
            for node in path:
                model.forward([int(tokens[node])], seq_cache)
            ref = model.forward([5], seq_cache).logits[0]
        assert np.abs(after - ref).max() <= 1e-5

    def test_select_path_bad_offsets(self):
        model = make_tiny_model()
        cache = model.new_cache()
        with T.no_grad():
            model.forward([1, 2, 3, 4, 5], cache)
        with pytest.raises(ValueError):
            cache.select_path(2, [1, 1])
        with pytest.raises(DimensionError):
            cache.select_path(2, [0, 9])
