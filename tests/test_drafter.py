"""Draft module: adaptation layers, half-split routing, auto-embedding block,
LM heads, ablation variants, cache rollback, and gradient integrity."""

from dataclasses import replace

import numpy as np
import pytest

from amphista import tensor as T
from amphista.drafter import TOP_K, VARIANTS, Drafter, DrafterConfig, topk_lists, variant_config
from amphista.gradcheck import grad_check
from amphista.model import ModelConfig, TargetModel
from amphista.tensor import DimensionError, NonFiniteError, Tensor
from amphista.training import (
    LossWeights,
    batch_draft_logits,
    compute_losses,
    measure_head_accuracy,
    teacher_forced,
)

from conftest import make_tiny_drafter, make_tiny_model


def rand_hidden(rng, d=16):
    return rng.standard_normal(d)


class TestAdapt:
    def test_none_variant_is_passthrough(self, tiny_model):
        drafter = make_tiny_drafter(tiny_model, adaptation="none")
        state = drafter.new_state()
        h = rand_hidden(np.random.default_rng(0))[None]
        h1, h2 = drafter.adapt(h, [3], state)
        assert h1 is h and h2 is h
        assert state.length == 0

    def test_shapes_and_cache_growth(self, tiny_model, tiny_drafter):
        state = tiny_drafter.new_state()
        h = rand_hidden(np.random.default_rng(1))[None]
        h1, h2 = tiny_drafter.adapt(h, [3], state)
        assert h1.shape == (1, 16) and h2.shape == (1, 16)
        assert state.kv1.length == 1 and state.kv2.length == 1

    def test_rows_in_one_call_match_one_row_calls(self, tiny_model, tiny_drafter):
        """Three rows adapted in one cached call agree with three one-row calls
        (to rounding: the two orders sum the attention differently)."""
        h = np.random.default_rng(20).standard_normal((3, 16))
        toks = [3, 7, 0]
        rolled, batched = tiny_drafter.new_state(), tiny_drafter.new_state()
        steps = [tiny_drafter.adapt(h[i : i + 1], toks[i : i + 1], rolled) for i in range(3)]
        h1, h2 = tiny_drafter.adapt(h, toks, batched)
        assert batched.kv1.length == batched.kv2.length == 3
        assert np.abs(h1 - np.concatenate([s[0] for s in steps])).max() <= 1e-12
        assert np.abs(h2 - np.concatenate([s[1] for s in steps])).max() <= 1e-12

    def test_token_out_of_range(self, tiny_model, tiny_drafter):
        state = tiny_drafter.new_state()
        with pytest.raises(IndexError):
            tiny_drafter.adapt(rand_hidden(np.random.default_rng(2))[None], [999], state)

    def test_zeroed_residual_branches_give_normalized_fc1(self, tiny_model):
        """With attention and FFN outputs forced to zero, the first adaptation
        layer reduces to its output normalization of the fc1 projection;
        compared against a hand-rolled single-layer oracle."""
        drafter = make_tiny_drafter(tiny_model)
        drafter.sal1.attn.wo.weight.data[:] = 0.0
        drafter.sal1.ffn.w2.weight.data[:] = 0.0
        state = drafter.new_state()
        rng = np.random.default_rng(3)
        h = rand_hidden(rng)
        tok = 5
        (h1,), _ = drafter.adapt(h[None], [tok], state)

        e = tiny_model.token_emb.data[tok]
        x = np.concatenate([h, e]) @ drafter.fc1.weight.data + drafter.fc1.bias.data
        rms = np.sqrt((x * x).mean() + 1e-5)
        oracle = (x / rms) * drafter.sal1.out_norm.gain.data
        assert np.abs(h1 - oracle).max() <= 1e-12

    def test_one_layer_routes_both_from_single_sal(self, tiny_model):
        drafter = make_tiny_drafter(tiny_model, adaptation="one_layer")
        state = drafter.new_state()
        h1, h2 = drafter.adapt(rand_hidden(np.random.default_rng(4))[None], [1], state)
        assert h1 is h2
        assert state.kv1.length == 1 and state.kv2.length == 0
        assert not hasattr(drafter, "sal2")

    def test_sampled_token_off_uses_zero_vector(self, tiny_model):
        """Same parameter shapes, but the token embedding input is zeroed."""
        seed = 9
        on = make_tiny_drafter(tiny_model, seed=seed)
        off = make_tiny_drafter(tiny_model, seed=seed, use_sampled_token=False)
        assert on.parameter_count() == off.parameter_count()
        h = rand_hidden(np.random.default_rng(5))[None]
        out_on = on.adapt(h, [3], on.new_state())[0]
        out_off = off.adapt(h, [3], off.new_state())[0]
        out_off2 = off.adapt(h, [7], off.new_state())[0]
        assert np.array_equal(out_off, out_off2)  # token no longer matters
        assert not np.array_equal(out_on, out_off)


class TestAutoEmbed:
    def test_both_skips_rows_equal_mlp_outputs(self, tiny_model):
        drafter = make_tiny_drafter(
            tiny_model, use_auto_embedding=False, use_positional_encoding=False
        )
        rng = np.random.default_rng(6)
        h1, h2 = rand_hidden(rng), rand_hidden(rng)
        out = drafter.auto_embed(h1, h2)
        for k in range(4):
            src = h1 if k < 2 else h2
            want = T.silu(drafter.mlps[k](Tensor(src))).data
            assert np.array_equal(out[k], want)

    def test_half_split_routing(self, tiny_model):
        """K=4: rows 1-2 derive from the first adapted state, rows 3-4 from the
        second; perturbing the second leaves the first half unchanged."""
        drafter = make_tiny_drafter(tiny_model, use_auto_embedding=False)
        rng = np.random.default_rng(7)
        h1, h2 = rand_hidden(rng), rand_hidden(rng)
        base = drafter.auto_embed(h1, h2)
        bumped = drafter.auto_embed(h1, h2 + 1e-2)
        assert np.array_equal(base[:2], bumped[:2])
        assert np.abs(base[2:] - bumped[2:]).max() > 0

    def test_bidirectional_mixing(self, tiny_model):
        """Encoder on: every output row is sensitive to every input row."""
        drafter = make_tiny_drafter(tiny_model)
        rng = np.random.default_rng(8)
        rows = Tensor(rng.standard_normal((4, 16)))

        def encode(x):
            for layer in drafter.encoder:
                x = layer(x)
            return drafter.encoder_norm(x).data

        base = encode(rows)
        for j in range(4):
            bumped_rows = rows.data.copy()
            bumped_rows[j] += 1e-2
            bumped = encode(Tensor(bumped_rows))
            for i in range(4):
                assert np.linalg.norm(bumped[i] - base[i]) > 0, (i, j)

    def test_pe_initialized_to_zero_matches_pe_off(self, tiny_model):
        seed = 21
        with_pe = make_tiny_drafter(tiny_model, seed=seed)
        without = make_tiny_drafter(tiny_model, seed=seed, use_positional_encoding=False)
        rng = np.random.default_rng(9)
        h1, h2 = rand_hidden(rng), rand_hidden(rng)
        assert np.array_equal(with_pe.auto_embed(h1, h2), without.auto_embed(h1, h2))


class TestHeadLogits:
    def test_top1_is_argmax(self, tiny_model):
        drafter = make_tiny_drafter(tiny_model)
        rng = np.random.default_rng(10)
        out = drafter.head_logits(rng.standard_normal((4, 16)))
        assert out.order.shape == (4, TOP_K)
        for k in range(4):
            assert out.order[k, 0] == int(np.argmax(out.d_logits[k]))

    def test_topk_sorted_descending(self, tiny_model):
        drafter = make_tiny_drafter(tiny_model)
        rng = np.random.default_rng(11)
        out = drafter.head_logits(rng.standard_normal((4, 16)))
        assert np.array_equal(out.probs, T.stable_softmax(out.d_logits))
        assert out.order.shape == (4, TOP_K)
        for k, row in enumerate(out.order):
            probs = out.probs[k, row].tolist()
            assert probs == sorted(probs, reverse=True)
            assert probs[-1] >= np.delete(out.probs[k], row).max()

    def test_topk_ties_go_to_the_lower_token(self):
        logits = np.zeros((3, TOP_K + 2))
        logits[0, [5, 2, 7]] = 1.0  # a three-way tie above the other tokens' tie
        logits[1, 6] = 2.0
        logits[2, [4, 1]] = 3.0
        probs, order = topk_lists(logits)
        assert np.array_equal(probs, T.stable_softmax(logits))
        rest = [[t for t in range(TOP_K + 2) if t not in top] for top in ([2, 5, 7], [6], [1, 4])]
        assert order.tolist() == [
            ([2, 5, 7] + rest[0])[:TOP_K],
            ([6] + rest[1])[:TOP_K],
            ([1, 4] + rest[2])[:TOP_K],
        ]

    def test_topk_wider_than_the_vocabulary_lists_every_token(self):
        probs, order = topk_lists(np.zeros((2, 3)))
        assert order.tolist() == [[0, 1, 2], [0, 1, 2]]

    def test_low_rank_matches_full_matrix_oracle(self):
        model = TargetModel(
            ModelConfig(vocab_size=256, hidden_dim=64, n_layers=1, n_heads=2, ffn_dim=64),
            np.random.default_rng(0),
        )
        drafter = Drafter(DrafterConfig(lm_head_rank=16), model, np.random.default_rng(1))
        rng = np.random.default_rng(12)
        x = rng.standard_normal(64)
        for k in range(4):
            a = drafter.lm_heads[k].down.weight.data
            b = drafter.lm_heads[k].up.weight.data
            got = drafter.lm_heads[k](Tensor(x)).data
            want = x @ (a @ b)  # composed full matrix W = AB
            assert np.abs(got - want).max() <= 1e-5

    def test_low_rank_parameter_count(self):
        model = TargetModel(
            ModelConfig(vocab_size=256, hidden_dim=64, n_layers=1, n_heads=2, ffn_dim=64),
            np.random.default_rng(0),
        )
        low = Drafter(DrafterConfig(lm_head_rank=16), model, np.random.default_rng(1))
        full = Drafter(DrafterConfig(), model, np.random.default_rng(1))
        assert low.lm_heads[0].parameter_count() == 16 * (64 + 256) == 5120
        assert full.lm_heads[0].parameter_count() == 64 * 256 == 16384


class TestDraftComposition:
    def test_medusa_heads_are_independent(self, tiny_model):
        drafter = make_tiny_drafter(tiny_model, **vars(variant_config("medusa", DrafterConfig(sal_heads=2))))
        h = rand_hidden(np.random.default_rng(13))
        before = drafter.draft(h, 2, drafter.new_state()).d_logits[0].copy()
        for k in range(1, 4):
            drafter.mlps[k].weight.data += 0.1
            drafter.lm_heads[k].weight.data += 0.1
        after = drafter.draft(h, 2, drafter.new_state()).d_logits[0]
        assert np.array_equal(before, after)

    def test_full_output_shape(self, tiny_model, tiny_drafter):
        out = tiny_drafter.draft(rand_hidden(np.random.default_rng(14)), 1, tiny_drafter.new_state())
        assert out.d_logits.shape == (4, 24)

    def test_consecutive_drafts_match_uncached_recompute(self, tiny_model):
        """For every variant and a low-rank head: advancing the adaptation
        caches changes the output, and every tape-free cached draft step agrees
        with the taped full-sequence ``sequence_logits`` at that position, as
        does the tape-free ``sequence_logits`` of the same sequence."""
        rng = np.random.default_rng(15)
        h_seq = rng.standard_normal((5, 16))
        toks = np.array([3, 7, 0, 23, 7])
        cases = [(name, "full") for name in VARIANTS] + [("amphista", 8)]
        for variant, rank in cases:
            config = variant_config(variant, DrafterConfig(sal_heads=2))
            drafter = Drafter(replace(config, lm_head_rank=rank), tiny_model, np.random.default_rng(1))
            state = drafter.new_state()
            steps = [drafter.draft(h, int(t), state).d_logits for h, t in zip(h_seq, toks)]
            assert not np.array_equal(steps[0], steps[1]), variant
            with T.no_grad():
                recomputed = drafter.sequence_logits(Tensor(h_seq), toks).data
            assert np.abs(recomputed - np.stack(steps)).max() <= 1e-12, (variant, rank)
            tape_free = drafter.sequence_logits(h_seq, toks)
            assert np.abs(recomputed - tape_free).max() <= 1e-12, (variant, rank)

    def test_nan_weight_raises_before_output(self, tiny_model, tiny_drafter):
        """Both tape-free paths check their logits: a draft step, and the
        teacher-forced evaluation of a held-out sequence."""
        tiny_drafter.sal2.ffn.w1.weight.data[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match=r"draft logits of shape \(4, 24\)"):
            tiny_drafter.draft(rand_hidden(np.random.default_rng(19)), 1, tiny_drafter.new_state())
        with pytest.raises(NonFiniteError, match=r"draft logits of shape \(1, 5, 4, 24\)"):
            measure_head_accuracy([list(range(10))], tiny_model, tiny_drafter)

    def test_all_variants_constructible(self, tiny_model):
        base = DrafterConfig(sal_heads=2)
        configs = [variant_config(name, base) for name in VARIANTS]
        assert len({repr(c) for c in configs}) == 7  # seven pairwise-distinct variants
        for cfg in configs:
            drafter = Drafter(cfg, tiny_model, np.random.default_rng(0))
            out = drafter.draft(rand_hidden(np.random.default_rng(1)), 0, drafter.new_state())
            assert out.d_logits.shape == (4, 24)
        medusa = variant_config("medusa", base)
        assert (medusa.adaptation, medusa.use_sampled_token) == ("none", False)
        assert (medusa.use_auto_embedding, medusa.use_positional_encoding) == (False, False)
        # a base's own flag values never reach a variant, so no two names collide
        for flags in (
            dict(use_positional_encoding=False),
            dict(use_auto_embedding=False),
            dict(adaptation="one_layer"),
        ):
            other = replace(base, **flags)
            assert [variant_config(name, other) for name in VARIANTS] == configs, flags

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_config("hydra", DrafterConfig())


class TestRollback:
    def test_rollback_to_zero_is_fresh(self, tiny_model, tiny_drafter):
        rng = np.random.default_rng(16)
        h = rand_hidden(rng)
        state = tiny_drafter.new_state()
        fresh = tiny_drafter.draft(h, 1, tiny_drafter.new_state())
        tiny_drafter.draft(h, 1, state)
        tiny_drafter.draft(h, 2, state)
        state.rollback(0)
        again = tiny_drafter.draft(h, 1, state)
        assert np.array_equal(fresh.d_logits, again.d_logits)

    def test_draft_rollback_redraft_bit_identical(self, tiny_model, tiny_drafter):
        rng = np.random.default_rng(17)
        h = rand_hidden(rng)
        state = tiny_drafter.new_state()
        tiny_drafter.draft(h, 1, state)
        first = tiny_drafter.draft(h, 4, state)
        state.rollback(1)
        second = tiny_drafter.draft(h, 4, state)
        assert first.d_logits.tobytes() == second.d_logits.tobytes()

    def test_rollback_noop_and_bounds(self, tiny_model, tiny_drafter):
        state = tiny_drafter.new_state()
        tiny_drafter.draft(rand_hidden(np.random.default_rng(18)), 1, state)
        state.rollback(1)
        assert state.length == 1
        with pytest.raises(DimensionError):
            state.rollback(2)


class TestGradientIntegrity:
    def test_drafter_loss_matches_finite_differences(self):
        """Every parameter group of the full drafter passes the finite-difference
        check on a 2-sequence teacher-forced batch."""
        model = make_tiny_model(seed=30)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=31)
        tokens = np.array([[1, 2, 3, 4, 5, 6, 7, 8], [9, 10, 11, 12, 13, 14, 15, 16]])

        view = teacher_forced(model, tokens, drafter.config.K)

        def fn():
            d_logits, target_probs, gt = batch_draft_logits(drafter, view)
            total, _, _ = compute_losses(d_logits, target_probs, gt, LossWeights())
            return total

        report = grad_check(
            fn,
            drafter.parameters(),
            eps=1e-3,
            tol=1e-4,
            max_entries_per_param=4,
            rng=np.random.default_rng(0),
        )
        assert report.passed, str(report)

    def test_shared_embedding_not_in_drafter_params(self, tiny_model, tiny_drafter):
        names = [n for n, _ in tiny_drafter.named_parameters()]
        assert len(names) == len(set(names))
        assert "token_emb" not in {n.split(".")[0] for n in names}
        grads_needed = all(p.requires_grad for p in tiny_drafter.parameters())
        assert grads_needed
