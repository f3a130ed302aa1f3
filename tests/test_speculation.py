"""Tree topology, masks, expansion, verification rules, and cache commit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amphista import tensor as T
from amphista.drafter import DraftOutput
from amphista.model import sample
from amphista.speculation import (
    DraftTree,
    TopologyError,
    TreeTopology,
    VerifyResult,
    build_mask,
    chain_accept_step,
    chain_topology,
    PRESET_PATHS,
    commit,
    expand_tree,
    format_topology,
    greedy_trees,
    load_topology,
    parse_topology,
    preset_topology,
    resolve_topology,
    sample_chain_tree,
    search_topology,
    verify,
)
from amphista.tensor import Tensor

from conftest import make_tiny_model, predicted_tokens_per_step, random_tree_paths


def fake_draft_output(topk, vocab=24):
    """DraftOutput whose logits, probabilities and top-k order follow the
    given per-head (token, prob) lists; the mass the list leaves is spread
    over the other tokens. Every head lists as many tokens as the longest
    list, so a shorter list goes on with the other tokens, lowest first."""
    k = len(topk)
    k_max = max(len(pairs) for pairs in topk)
    logits = np.full((k, vocab), -10.0)
    probs = np.zeros((k, vocab))
    for head, pairs in enumerate(topk):
        probs[head] = (1.0 - sum(p for _, p in pairs)) / (vocab - len(pairs))
        for rank, (tok, prob) in enumerate(pairs):
            logits[head, tok] = 5.0 - rank
            probs[head, tok] = prob
    order = np.argsort(-probs, axis=-1, kind="stable")[:, :k_max]
    return DraftOutput(d_logits=Tensor(logits), probs=probs, order=order)


def chain_tree(tokens, vocab=24, probs=None):
    """Hand-built single-path tree: tokens[0] is the root."""
    depth = len(tokens) - 1
    topo = TreeTopology.from_paths([(0,) * k for k in range(1, depth + 1)])
    p = np.ones(len(tokens)) if probs is None else np.asarray(probs, dtype=float)
    return DraftTree(
        topology=topo,
        tokens=np.asarray(tokens, dtype=np.int64),
        probs=p,
        mask=build_mask(topo),
    )


class TestTopology:
    def test_chain_mask_is_lower_triangular(self):
        topo = preset_topology("chain")
        assert np.array_equal(build_mask(topo), np.tril(np.ones((5, 5), dtype=bool)))

    def test_two_head_top2_top3_tree(self):
        """2 heads, top-2 then top-3: 9 nodes including the root and 6 candidate
        sequences; each leaf row attends to exactly root, level-1 parent, self."""
        paths = [(0,), (1,)] + [(i, j) for i in range(2) for j in range(3)]
        topo = TreeTopology.from_paths(paths)
        assert topo.node_count == 9
        leaves = [i for i, c in enumerate(topo.children) if not c and i > 0]
        assert len(leaves) == 6
        mask = build_mask(topo)
        for leaf in leaves:
            assert mask[leaf].sum() == 3

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12), st.integers(0, 100))
    def test_mask_matches_parent_walk_oracle(self, fanout_choices, seed):
        # grow a random prefix-closed tree from fanout choices
        rng = np.random.default_rng(seed)
        paths = []
        frontier = [()]
        for fc in fanout_choices:
            if not frontier:
                break
            parent = frontier[int(rng.integers(len(frontier)))]
            if len(parent) >= 4:
                continue
            child = parent + (fc,)
            if child in paths:
                continue
            # keep choice indices dense under each parent to stay prefix-valid
            sibling_count = sum(1 for p in paths if p[:-1] == parent)
            child = parent + (sibling_count,)
            paths.append(child)
            frontier.append(child)
        if not paths:
            paths = [(0,)]
        topo = TreeTopology.from_paths(paths)
        mask = build_mask(topo)
        for i in range(topo.node_count):
            ancestors = set()
            j = i
            while j >= 0:
                ancestors.add(j)
                j = topo.parent[j]
            assert set(np.nonzero(mask[i])[0]) == ancestors

    def test_not_prefix_closed_rejected(self):
        with pytest.raises(TopologyError, match="prefix"):
            TreeTopology.from_paths([(0,), (0, 1, 0)])

    def test_file_round_trip(self, tmp_path):
        topo = preset_topology("searched")
        path = tmp_path / "tree.txt"
        path.write_text(format_topology(topo))
        back = load_topology(path)
        assert back == topo

    def test_topology_file_is_resolved_once(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text(format_topology(preset_topology("searched")))
        first = resolve_topology(str(path))
        assert resolve_topology(str(path)) is first
        assert first == preset_topology("searched") and not first.mask.flags.writeable

    def test_parse_validates_closure(self):
        with pytest.raises(TopologyError):
            parse_topology("0\n0,1,0\n")

    def test_parse_example_paths(self):
        topo = parse_topology("0\n0,1\n0,1,0\n# comment\n")
        assert topo.paths == ((0,), (0, 1), (0, 1, 0))

    def test_preset_node_counts(self):
        assert set(PRESET_PATHS) == {"chain", "cart45", "searched"}
        assert preset_topology("chain").node_count == 5
        assert preset_topology("cart45").node_count == 1 + 4 + 8 + 16 + 16 == 45
        assert preset_topology("searched").node_count == 8
        for name in PRESET_PATHS:
            assert preset_topology(name).depth_max == 4

    def test_chain_topology_is_built_once_per_depth(self):
        assert chain_topology(4) is chain_topology(4)
        assert chain_topology(4) == preset_topology("chain")
        assert chain_topology(3).paths == ((0,), (0, 0), (0, 0, 0))


class TestExpandTree:
    def test_chain_is_argmax_sequence(self):
        topk = [[(3, 0.9)], [(5, 0.8)], [(7, 0.7)], [(9, 0.6)]]
        tree = expand_tree(fake_draft_output(topk), preset_topology("chain"), last_token=1)
        assert list(tree.tokens) == [1, 3, 5, 7, 9]
        assert tree.probs[0] == 1.0
        assert np.allclose(tree.probs[1:], [0.9, 0.8, 0.7, 0.6])

    def test_depth1_children_in_probability_order(self):
        topk = [
            [(3, 0.9), (4, 0.05)],
            [(5, 0.8)],
            [(7, 0.7)],
            [(9, 0.6)],
        ]
        topo = TreeTopology.from_paths([(0,), (1,), (0, 0), (0, 0, 0), (0, 0, 0, 0)])
        tree = expand_tree(fake_draft_output(topk), topo, last_token=1)
        assert tree.tokens[1] == 3 and tree.tokens[2] == 4

    def test_cartesian_node_count(self):
        topk = [[(i, 0.1) for i in range(4)]] * 4
        tree = expand_tree(fake_draft_output(topk), preset_topology("cart45"), last_token=0)
        assert tree.node_count == 45

    def test_choice_index_beyond_topk(self):
        topk = [[(3, 0.9)], [(5, 0.8)], [(7, 0.7)], [(9, 0.6)]]
        with pytest.raises(TopologyError, match="top-k"):
            expand_tree(fake_draft_output(topk), preset_topology("cart45"), last_token=0)

    def test_depth_must_match_head_count(self):
        topk = [[(3, 0.9)], [(5, 0.8)]]
        with pytest.raises(TopologyError, match="depth"):
            expand_tree(fake_draft_output(topk), preset_topology("chain"), last_token=0)

    @pytest.mark.parametrize("tree", ["chain", "searched", "cart45", "random"])
    def test_same_tree_as_a_per_node_loop(self, tree):
        """The cached index arrays give the tokens, probabilities and
        positions that one loop over the topology's paths gives."""
        rng = np.random.default_rng(6)
        if tree == "random":
            topo = TreeTopology.from_paths(random_tree_paths(rng, 60, max_depth=4))
        else:
            topo = preset_topology(tree)
        probs = rng.dirichlet(np.ones(24), size=topo.depth_max)
        order = np.argsort(-probs, axis=-1, kind="stable")[:, :10]
        draft = DraftOutput(d_logits=Tensor(np.log(probs)), probs=probs, order=order)
        tokens = np.zeros(topo.node_count, dtype=np.int64)
        want = np.ones(topo.node_count, dtype=np.float64)
        tokens[0] = 7
        for i, path in enumerate(topo.paths, start=1):
            tokens[i] = order[len(path) - 1, path[-1]]
            want[i] = probs[len(path) - 1, tokens[i]]
        got = expand_tree(draft, topo, last_token=7)
        assert got.tokens.dtype == np.int64 and np.array_equal(got.tokens, tokens)
        assert got.probs.tobytes() == want.tobytes()
        assert np.array_equal(got.positions, np.asarray(topo.depth))
        for arr in (topo.depth_array, topo.head_index, topo.choice_index):
            assert not arr.flags.writeable

    def test_too_wide_choice_named_at_its_depth(self):
        topk = [[(3, 0.9), (4, 0.05)], [(5, 0.8)], [(7, 0.7)], [(9, 0.6)]]
        topo = TreeTopology.from_paths([(0,), (1,), (0, 0), (0, 2), (0, 0, 0), (0, 0, 0, 0)])
        with pytest.raises(TopologyError, match="choice index 2 at depth 2 exceeds head 2's top-k of 2"):
            expand_tree(fake_draft_output(topk), topo, last_token=0)


def one_hot_logits(rows, vocab=24, scale=4.0):
    out = np.zeros((len(rows), vocab))
    for i, tok in enumerate(rows):
        out[i, tok] = scale
    return out


class TestVerifyGreedy:
    def test_perfect_chain_accepts_all(self):
        tree = chain_tree([1, 3, 5, 7, 9])
        # each node's argmax equals its child's token; last argmax becomes bonus
        logits = one_hot_logits([3, 5, 7, 9, 11])
        res = verify(tree, logits, "greedy", 0.0)
        assert res.accepted_len == 4
        assert res.tokens_emitted == 5
        assert res.bonus_token == 11

    def test_first_level_mismatch_stops_at_root(self):
        tree = chain_tree([1, 3, 5, 7, 9])
        logits = one_hot_logits([2, 5, 7, 9, 11])  # root argmax 2 != child token 3
        res = verify(tree, logits, "greedy", 0.0)
        assert res.accepted_len == 0
        assert res.tokens_emitted == 1
        assert res.bonus_token == 2

    def test_greedy_requires_zero_temperature(self):
        tree = chain_tree([1, 3, 5, 7, 9])
        with pytest.raises(ValueError, match="temperature"):
            verify(tree, one_hot_logits([3, 5, 7, 9, 11]), "greedy", 0.7)

    def test_branching_descends_matching_child(self):
        paths = [(0,), (1,), (0, 0), (1, 0)]
        topo = TreeTopology.from_paths(paths)
        tokens = np.array([1, 3, 4, 5, 6])
        tree = DraftTree(topo, tokens, np.ones(5), build_mask(topo))
        # row per node: root prefers token 4 (node 2), node 2 prefers token 6 (node 4)
        logits = one_hot_logits([4, 0, 6, 0, 0])
        res = verify(tree, logits, "greedy", 0.0)
        assert res.accepted_nodes == [0, 2, 4]
        assert res.bonus_token == 0


class TestVerifyTypical:
    def test_confident_child_accepted(self):
        tree = chain_tree([1, 3, 5, 7, 9])
        logits = one_hot_logits([3, 5, 7, 9, 11], scale=8.0)
        res = verify(tree, logits, "typical", 0.7, rng=np.random.default_rng(0))
        assert res.accepted_len == 4

    def test_unlikely_child_rejected(self):
        tree = chain_tree([1, 3, 5, 7, 9])
        logits = one_hot_logits([2, 5, 7, 9, 11], scale=8.0)  # child token 3 has ~0 prob
        res = verify(tree, logits, "typical", 0.7, rng=np.random.default_rng(0))
        assert res.accepted_len == 0

    def test_descends_by_highest_draft_probability(self):
        paths = [(0,), (1,)]
        topo = TreeTopology.from_paths(paths)
        tokens = np.array([1, 3, 4])
        probs = np.array([1.0, 0.2, 0.7])
        tree = DraftTree(topo, tokens, probs, build_mask(topo))
        logits = np.zeros((3, 24))
        logits[0, 3] = 3.0
        logits[0, 4] = 3.0  # both children comfortably acceptable
        res = verify(tree, logits, "typical", 1.0, rng=np.random.default_rng(0))
        assert res.accepted_nodes[1] == 2  # node with draft prob 0.7

    def test_requires_rng(self):
        tree = chain_tree([1, 3, 5, 7, 9])
        with pytest.raises(ValueError, match="rng"):
            verify(tree, one_hot_logits([3, 5, 7, 9, 11]), "typical", 0.7)


class TestChainRejection:
    def test_step_preserves_target_distribution(self):
        """Draw from q, run the accept/residual construction, and compare the
        emitted distribution to p: total variation <= 0.01 at 1e5 trials."""
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.5, 0.3])
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            x = int(np.searchsorted(np.cumsum(q), rng.random(), side="right"))
            ok, bonus = chain_accept_step(p, q, x, rng)
            counts[x if ok else bonus] += 1
        tv = 0.5 * np.abs(counts / n - p).sum()
        assert tv <= 0.01, f"TV={tv:.4f}"

    def test_identical_distributions_never_reject(self):
        p = np.array([0.6, 0.4])
        rng = np.random.default_rng(0)
        for x in (0, 1):
            for _ in range(100):
                ok, _ = chain_accept_step(p, p, x, rng)
                assert ok

    def test_verify_chain_needs_dists_and_single_path(self):
        tree = chain_tree([1, 3, 5, 7, 9])
        with pytest.raises(ValueError, match="distributions"):
            verify(tree, one_hot_logits([3, 5, 7, 9, 11]), "chain", 0.7, np.random.default_rng(0))
        draft = fake_draft_output([[(3, 0.9), (4, 0.05)]] * 4)
        with pytest.raises(TopologyError, match="single-path"):
            sample_chain_tree(draft, preset_topology("cart45"), 1, np.random.default_rng(0))

    def test_sampled_chain_tree_tokens_come_from_heads(self):
        topk = [[(3, 0.9)], [(5, 0.8)], [(7, 0.7)], [(9, 0.6)]]
        draft = fake_draft_output(topk)
        tree = sample_chain_tree(
            draft, chain_topology(4), last_token=1, rng=np.random.default_rng(0)
        )
        assert tree.node_count == 5
        assert tree.head_dists is not None
        for k in range(4):
            assert tree.probs[k + 1] == pytest.approx(tree.head_dists[k][tree.tokens[k + 1]])


class TestCommit:
    def _run_tree_round(self, model, prompt, tree):
        cache = model.new_cache()
        with T.no_grad():
            model.forward(prompt, cache)
            base = cache.length
            tout = model.forward(
                tree.tokens, cache, mask=tree.mask, positions=base + tree.positions
            )
        return cache, tout

    def test_accept_nothing_keeps_root_only(self):
        model = make_tiny_model()
        tree = chain_tree([1, 3, 5, 7, 9])
        cache, tout = self._run_tree_round(model, [2, 2, 2], tree)
        res = VerifyResult(accepted_nodes=[0], bonus_token=4)
        bonus = commit(res, tree, cache)
        assert bonus == 4
        assert cache.length == 3 + 1

    def test_commit_before_forward_rejected(self):
        model = make_tiny_model()
        tree = chain_tree([1, 3, 5, 7, 9])
        cache = model.new_cache()
        with T.no_grad():
            model.forward([2, 2], cache)
        with pytest.raises(ValueError):
            commit(VerifyResult([0], 4), tree, cache)

    def test_greedy_round_then_ar_matches_pure_ar(self):
        """After a speculative round and commit, continuing autoregressively
        reproduces an AR-only run token for token."""
        model = make_tiny_model(seed=11)
        prompt = [1, 2, 3, 4]

        # pure AR reference, 8 tokens
        ar_cache = model.new_cache()
        with T.no_grad():
            out = model.forward(prompt, ar_cache)
            tok = sample(out.logits.data[-1], 0.0)
            ar_tokens = [tok]
            for _ in range(7):
                out = model.forward([tok], ar_cache)
                tok = sample(out.logits.data[-1], 0.0)
                ar_tokens.append(tok)

        # speculative round with an arbitrary drafted chain, then AR continuation
        cache = model.new_cache()
        with T.no_grad():
            out = model.forward(prompt, cache)
            root = sample(out.logits.data[-1], 0.0)
            drafted = [root, ar_tokens[1], 99 % 24, 5, 6]  # correct first draft, then junk
            tree = chain_tree(drafted)
            base = cache.length
            tout = model.forward(tree.tokens, cache, mask=tree.mask, positions=base + tree.positions)
            res = verify(tree, tout.logits, "greedy", 0.0)
            bonus = commit(res, tree, cache)
            spec_tokens = [root] + [int(tree.tokens[i]) for i in res.accepted_nodes[1:]] + [bonus]
            tok = bonus
            while len(spec_tokens) < 8:
                out = model.forward([tok], cache)
                tok = sample(out.logits.data[-1], 0.0)
                spec_tokens.append(tok)
        assert spec_tokens == ar_tokens

    def test_cache_length_accounting_over_two_rounds(self):
        """cache length == prompt + committed tokens; the newest bonus is only
        forwarded as the next round's root."""
        model = make_tiny_model(seed=12)
        prompt = [3, 3, 3]
        cache = model.new_cache()
        emitted = 0
        with T.no_grad():
            out = model.forward(prompt, cache)
            tok = sample(out.logits.data[-1], 0.0)
            emitted += 1
            for _ in range(2):
                tree = chain_tree([tok, 1, 2, 3, 4])
                base = cache.length
                tout = model.forward(
                    tree.tokens, cache, mask=tree.mask, positions=base + tree.positions
                )
                res = verify(tree, tout.logits, "greedy", 0.0)
                tok = commit(res, tree, cache)
                emitted += res.tokens_emitted
                assert cache.length == len(prompt) + emitted - 1


class TestEmittedBounds:
    @given(st.integers(0, 500))
    def test_tokens_emitted_within_depth_bound(self, seed):
        """1 <= tokens_emitted <= depth_max + 1 for any logits and any rule."""
        rng = np.random.default_rng(seed)
        topo = preset_topology("cart45")
        tokens = rng.integers(0, 24, size=topo.node_count)
        probs = rng.random(topo.node_count)
        tree = DraftTree(topo, tokens, probs, build_mask(topo))
        logits = rng.standard_normal((topo.node_count, 24))
        for rule, temp in (("greedy", 0.0), ("typical", 0.8)):
            res = verify(tree, logits, rule, temp, rng=np.random.default_rng(seed))
            assert 1 <= res.tokens_emitted <= topo.depth_max + 1
            assert len(res.accepted_nodes) == res.accepted_len + 1


class TestMaskForwardCoherence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verify_decisions_match_sequential_path_oracle(self, seed):
        """Greedy decisions from one tree-masked forward equal decisions made by
        brute-force sequential re-decoding of candidate paths."""
        model = make_tiny_model(seed=seed)
        rng = np.random.default_rng(seed)
        prompt = list(rng.integers(0, 24, size=5))
        topo = preset_topology("cart45")
        tokens = rng.integers(0, 24, size=topo.node_count)
        tokens[0] = int(rng.integers(0, 24))
        tree = DraftTree(topo, tokens, np.ones(topo.node_count), build_mask(topo))

        cache = model.new_cache()
        with T.no_grad():
            model.forward(prompt, cache)
            base = cache.length
            tout = model.forward(tree.tokens, cache, mask=tree.mask, positions=base + tree.positions)
        res = verify(tree, tout.logits, "greedy", 0.0)

        # oracle: walk the tree with fresh sequential decodes only
        ref_cache = model.new_cache()
        with T.no_grad():
            model.forward(prompt, ref_cache)
            children = topo.children
            node = 0
            accepted = [0]
            path_tokens = [int(tree.tokens[0])]
            while True:
                ref_cache.truncate(len(prompt))
                out = model.forward(path_tokens, ref_cache)
                best = int(np.argmax(out.logits.data[-1]))
                nxt = next((c for c in children[node] if tree.tokens[c] == best), None)
                if nxt is None:
                    bonus = best
                    break
                accepted.append(nxt)
                path_tokens.append(int(tree.tokens[nxt]))
                node = nxt
        assert res.accepted_nodes == accepted
        assert res.bonus_token == bonus


def random_rank_vectors(seed: int, n: int = 3000, depth: int = 4) -> list[tuple[int, ...]]:
    """Rank vectors shaped like a trained drafter's: usually deep, mostly rank 0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ranks = []
        while len(ranks) < depth and rng.random() < 0.8:
            ranks.append(min(int(rng.geometric(0.55)) - 1, 9))
        out.append(tuple(ranks))
    return out


class TestTreeSearch:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_prediction_is_one_plus_mean_matched_prefix(self, seed):
        rank_vectors = random_rank_vectors(seed, n=400)
        for cand in greedy_trees(rank_vectors, 4):
            assert cand.tokens_per_step == pytest.approx(
                predicted_tokens_per_step(cand.topology.paths, rank_vectors), abs=1e-12
            )

    def test_hand_made_rank_vectors(self):
        rank_vectors = [(0, 0, 0, 0), (0, 1), (1,), (), (0, 0, 2)]
        candidates = greedy_trees(rank_vectors, 4)
        # chain: 1 + (4 + 1 + 0 + 0 + 2) / 5
        assert candidates[0].topology.paths == ((0,), (0, 0), (0, 0, 0), (0, 0, 0, 0))
        assert candidates[0].tokens_per_step == pytest.approx(1 + 7 / 5)
        # every observed path: 1 + mean vector length
        assert candidates[-1].tokens_per_step == pytest.approx(1 + 10 / 5)
        assert search_topology(candidates, lambda n: 1.0 + 0.1 * n) in candidates

    def test_trees_are_prefix_closed_with_depth_k(self):
        for depth, rank_vectors in ((4, random_rank_vectors(2)), (3, [(1, 2), (0,), ()])):
            candidates = greedy_trees(rank_vectors, depth)
            counts = [c.topology.node_count for c in candidates]
            assert counts == sorted(set(counts)) and counts[-1] <= 64
            for cand in candidates:
                paths = set(cand.topology.paths)
                assert all(p[:-1] in paths for p in paths if len(p) > 1)
                assert cand.topology.depth_max == depth

    def test_no_preset_beats_the_search_at_its_node_count(self):
        rank_vectors = random_rank_vectors(3)
        by_nodes = {c.topology.node_count: c for c in greedy_trees(rank_vectors, 4)}
        for name, paths in PRESET_PATHS.items():
            n = preset_topology(name).node_count
            assert predicted_tokens_per_step(paths, rank_vectors) <= (
                by_nodes[n].tokens_per_step + 1e-12
            ), name

    def test_no_random_tree_beats_the_search_at_its_node_count(self):
        rank_vectors = random_rank_vectors(3)
        by_nodes = {c.topology.node_count: c for c in greedy_trees(rank_vectors, 4)}
        rng = np.random.default_rng(5)
        for n in range(5, 65):
            paths = random_tree_paths(rng, n, max_depth=4)
            while max(map(len, paths)) < 4:
                paths = random_tree_paths(rng, n, max_depth=4)
            assert predicted_tokens_per_step(paths, rank_vectors) <= (
                by_nodes[n].tokens_per_step + 1e-12
            ), paths

    def test_search_maximises_tokens_per_second(self):
        rank_vectors = random_rank_vectors(4)
        cost = lambda n: 2.0 + 0.07 * n  # noqa: E731
        candidates = greedy_trees(rank_vectors, 4)
        rates = [c.tokens_per_step / cost(c.topology.node_count) for c in candidates]
        assert search_topology(candidates, cost) is candidates[int(np.argmax(rates))]
        # free nodes: the largest tree wins; costly nodes: the chain
        assert search_topology(candidates, lambda n: 1.0) is candidates[-1]
        assert search_topology(candidates, lambda n: n).topology.node_count == 5

    def test_rejects_rank_vectors_deeper_than_the_tree(self):
        with pytest.raises(ValueError, match="depth"):
            greedy_trees([(0, 0, 0)], 2)
