"""The tape-free array path computes the same bits as its earlier form.

``parent_attend`` and ``parent_ffn`` below are the array path as it was
before its per-call Python work was cut: every projection through
``Linear.__call__``, and attention as one loop over blocks of ``BLOCK`` query
rows that slices q, k and v even when there is one block. Each test runs the
same calls with the current layers and with these references swapped in, and
requires equal bits in every output and every cached key and value."""

from dataclasses import replace

import numpy as np
import pytest

from amphista import nn
from amphista import tensor as T
from amphista.nn import BLOCK, causal_mask_bias
from amphista.speculation import TreeTopology, preset_topology
from amphista.tensor import DimensionError

from conftest import TINY_MODEL, make_tiny_drafter, make_tiny_model, random_tree_paths

LONG = replace(TINY_MODEL, max_seq_len=3 * BLOCK)


def parent_attend(self, x, cache, mask_bias, causal, last_rows):
    *lead, t, d = x.shape
    t0 = 0 if last_rows is None else t - last_rows
    split = (*lead, -1, self._n_heads, d // self._n_heads)
    q = self.wq(x[..., t0:, :]).reshape(split)
    k, v = (proj(x).reshape(split) for proj in (self.wk, self.wv))
    if cache is not None:
        if lead:
            raise DimensionError("cached attention expects an unbatched [T, d] input")
        cache.extend(k, v)
        k, v = cache.k, cache.v
    q, k, v = (y.swapaxes(-3, -2) for y in (q, k, v))
    n_keys = k.shape[-2]
    base = n_keys - t
    diagonal = causal_mask_bias(BLOCK, x.dtype) if causal and t > 1 else None
    blocks = []
    for s0 in range(t0, t, BLOCK):
        e = min(s0 + BLOCK, t)
        end = base + e if causal or mask_bias is not None else n_keys
        scores = q[..., s0 - t0 : e - t0, :] @ k[..., :end, :].swapaxes(-1, -2)
        scores *= self._scale
        if diagonal is not None:
            scores[..., base + s0 :] += diagonal[: e - s0, : e - s0]
        elif mask_bias is not None:
            scores[..., base:] += mask_bias[s0:e, :e]
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        blocks.append(scores @ v[..., :end, :])
    out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-2)
    return self.wo(out.swapaxes(-3, -2).reshape(*lead, t - t0, d))


def parent_ffn(self, x):
    return self.w2(nn.silu(self.w1(x)))


def assert_same_bits(monkeypatch, run):
    """``run()`` returns a list of arrays; the current array path and the
    reference give each the same dtype, shape and bytes."""
    got = run()
    with monkeypatch.context() as m:
        m.setattr(nn.SelfAttention, "_attend", parent_attend)
        m.setattr(nn.FeedForward, "__call__", parent_ffn)
        want = run()
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


def cached_rows(cache) -> list[np.ndarray]:
    return [arr.copy() for layer in cache.layers for arr in (layer.k, layer.v)]


def outputs(out) -> list[np.ndarray]:
    return [out.hidden.data, out.logits.data]


def test_one_token_steps(monkeypatch):
    model = make_tiny_model()

    def run():
        cache = model.new_cache()
        got = outputs(model.forward([3, 1, 4, 1, 5, 9, 2], cache))
        for tok in (6, 5, 3):
            got += outputs(model.forward([tok], cache))
        return got + cached_rows(cache)

    assert_same_bits(monkeypatch, run)


@pytest.mark.parametrize("prefix", [0, 30])
@pytest.mark.parametrize("t", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_causal_prefill_at_block_boundaries(monkeypatch, prefix, t):
    """A causal prefill runs its last layer for the last row only; the step
    after it reads every row's cached keys and values."""
    model = make_tiny_model(config=LONG)
    tokens = [int(i) for i in np.random.default_rng(t).integers(0, 24, size=prefix + t + 1)]

    def run():
        cache = model.new_cache()
        got = outputs(model.forward(tokens[:prefix], cache)) if prefix else []
        got += outputs(model.forward(tokens[prefix:-1], cache))
        got += outputs(model.forward(tokens[-1:], cache))
        return got + cached_rows(cache)

    assert_same_bits(monkeypatch, run)


@pytest.mark.parametrize("tree", ["searched", "cart45", "random-wider-than-a-block"])
def test_tree_mask(monkeypatch, tree):
    model = make_tiny_model(config=LONG)
    rng = np.random.default_rng(4)
    if tree.startswith("random"):
        topo = TreeTopology.from_paths(random_tree_paths(rng, BLOCK + 10, max_depth=5))
    else:
        topo = preset_topology(tree)
    tokens = rng.integers(0, 24, size=topo.node_count)

    def run():
        cache = model.new_cache()
        model.forward([1, 2, 3, 4, 5], cache)
        out = model.forward(tokens, cache, mask=topo.mask, positions=5 + topo.depth_array)
        return outputs(out) + cached_rows(cache)

    assert_same_bits(monkeypatch, run)


@pytest.mark.parametrize("t, last_rows", [(9, 3), (2 * BLOCK + 5, BLOCK + 2)])
@pytest.mark.parametrize("cached", [False, True])
def test_last_rows(monkeypatch, t, last_rows, cached):
    """Attention and a whole layer for just the last rows, in one block and
    across blocks, with and without a cache of 7 earlier rows."""
    model = make_tiny_model(config=LONG)
    layer = model.layers[0]
    rng = np.random.default_rng(t)
    earlier, x = rng.standard_normal((7, 16)), rng.standard_normal((t, 16))

    def run():
        got = []
        for call in (layer.attn, layer):
            kv = nn.LayerKV(2, 8, LONG.max_seq_len) if cached else None
            if cached:
                call(earlier, cache=kv, causal=True)
            got.append(call(x, cache=kv, causal=True, last_rows=last_rows))
            got += [kv.k.copy(), kv.v.copy()] if cached else []
        return got

    assert_same_bits(monkeypatch, run)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 40), (2, BLOCK + 1)])
def test_frozen_forward_batch(monkeypatch, dtype, shape):
    """Batched [B, T] rows: attention with a leading dimension, no cache."""
    with T.dtype_context(dtype):
        model = make_tiny_model(config=LONG)
    model.freeze()
    tokens = np.random.default_rng(shape[1]).integers(0, 24, size=shape)
    assert_same_bits(monkeypatch, lambda: outputs(model.forward_batch(tokens)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_drafter_encoder_without_cache(monkeypatch, dtype):
    """The auto-embedding encoder attends over [..., K, d] rows unmasked, and
    the adaptation layers causally over [B, T, d], all without a cache."""
    with T.dtype_context(dtype):
        model = make_tiny_model()
        drafter = make_tiny_drafter(model)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((2, 6, 16)).astype(dtype)
    ids = rng.integers(0, 24, size=(2, 6))

    def run():
        h1, h2 = drafter.adapt(h, ids)
        return [h1, h2, drafter.auto_embed(h1, h2), drafter.sequence_logits(h, ids)]

    assert_same_bits(monkeypatch, run)
