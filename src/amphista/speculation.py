"""Draft trees: topology, attention mask, token expansion, verification, commit.

Topologies use the path encoding common to multi-head drafting systems: each
non-root node is the tuple of per-depth choice indices leading to it, e.g.
"0,1,0" is the 0th choice under the 1st choice under the 0th choice. Files
hold one path per line, so published sparse trees can be pasted in directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .model import KVCache, categorical
from .tensor import Tensor, stable_softmax

Path_ = tuple[int, ...]

# Typical acceptance's thresholds (Medusa, Cai et al. 2024): at T > 0 a child
# is accepted iff its target probability is at least
# min(TYPICAL_EPSILON, TYPICAL_DELTA * exp(-H)), H the target's entropy.
TYPICAL_EPSILON = 0.09
TYPICAL_DELTA = 0.3


class TopologyError(ValueError):
    """Invalid tree description (not prefix-closed, bad indices, ...)."""


@dataclass(frozen=True)
class TreeTopology:
    """Static tree structure: node 0 is the root, others follow sorted paths."""

    paths: tuple[Path_, ...]
    parent: tuple[int, ...]
    depth: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def depth_max(self) -> int:
        return max(self.depth)

    @cached_property
    def mask(self) -> np.ndarray:
        """``build_mask(self)``, computed once and read-only."""
        return _read_only(build_mask(self))

    @cached_property
    def depth_array(self) -> np.ndarray:
        """``depth`` as a read-only int64 array (the nodes' tree positions)."""
        return _read_only(np.asarray(self.depth, dtype=np.int64))

    @cached_property
    def head_index(self) -> np.ndarray:
        """Per non-root node, the head that fills it (depth - 1); read-only."""
        return _read_only(self.depth_array[1:] - 1)

    @cached_property
    def choice_index(self) -> np.ndarray:
        """Per non-root node, its rank in its head's top-k; read-only."""
        return _read_only(np.array([p[-1] for p in self.paths], dtype=np.int64))

    @cached_property
    def max_choice(self) -> int:
        """The largest choice index: the widest top-k this topology reads."""
        return max(p[-1] for p in self.paths)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Per node, its children's indices in ascending order; computed once."""
        out: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p].append(i)
        return tuple(tuple(c) for c in out)

    @classmethod
    def from_paths(cls, paths) -> "TreeTopology":
        norm: list[Path_] = []
        seen: set[Path_] = set()
        for p in paths:
            tp = tuple(int(c) for c in p)
            if not tp:
                raise TopologyError("empty path (the root is implicit)")
            if any(c < 0 for c in tp):
                raise TopologyError(f"negative choice index in {tp}")
            if tp not in seen:
                seen.add(tp)
                norm.append(tp)
        if not norm:
            raise TopologyError("topology needs at least one non-root node")
        norm.sort(key=lambda p: (len(p), p))
        index = {p: i + 1 for i, p in enumerate(norm)}
        parent = [-1]
        depth = [0]
        for p in norm:
            if len(p) > 1 and p[:-1] not in index:
                raise TopologyError(f"not prefix-closed: {p} lacks parent {p[:-1]}")
            parent.append(0 if len(p) == 1 else index[p[:-1]])
            depth.append(len(p))
        return cls(paths=tuple(norm), parent=tuple(parent), depth=tuple(depth))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_mask(topology: TreeTopology) -> np.ndarray:
    """Boolean [n, n] matrix: row i is true exactly on i's root-to-i path."""
    n = topology.node_count
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        j = i
        while j >= 0:
            mask[i, j] = True
            j = topology.parent[j]
    return mask


def parse_topology(text: str) -> TreeTopology:
    paths = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        paths.append(tuple(int(part) for part in line.split(",")))
    return TreeTopology.from_paths(paths)


def format_topology(topology: TreeTopology) -> str:
    return "\n".join(",".join(str(c) for c in p) for p in topology.paths) + "\n"


def load_topology(path: str | Path) -> TreeTopology:
    return parse_topology(Path(path).read_text())


def cartesian_paths(per_level: list[int]) -> list[Path_]:
    """Full cartesian tree: every prefix of every per-level choice combination."""
    paths: list[Path_] = []
    frontier: list[Path_] = [()]
    for k in per_level:
        frontier = [p + (c,) for p in frontier for c in range(k)]
        paths.extend(frontier)
    return paths


# The tree of most tokens per second on the configs/toy.cfg seed-0 checkpoint:
#   amphista train --config configs/toy.cfg --seed 0 --out runs/toy
#   amphista tree-search --config configs/toy.cfg --seed 0 --topology cart45 \
#       --ckpt runs/toy/checkpoint.bin --out runs/tree
# on 2 cores (Intel Xeon), OpenBLAS with 1 thread, Python 3.11, numpy 2.4.
# Picked for a drafter trained on corpus text (3.49 tokens/step predicted).
# With the self-distilled drafter the search picks an 8-node tree with
# (0, 0, 1) in place of (0, 1), predicted 3.935 tokens/step to this tree's
# 3.908; on 80 held-out prompts the two took 1355 and 1353 steps, so this
# tree stays. Trees of 6 to 12 nodes score within 3.5% of it in tokens/s.
_SEARCHED = [(0,), (1,), (0, 0), (0, 1), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)]

PRESET_PATHS: dict[str, list[Path_]] = {
    "chain": [(0,) * k for k in range(1, 5)],
    "cart45": cartesian_paths([4, 2, 2, 1]),
    "searched": _SEARCHED,
}


@cache
def preset_topology(name: str) -> TreeTopology:
    """The named preset, built once: topologies are frozen and their masks read-only."""
    if name not in PRESET_PATHS:
        raise TopologyError(f"unknown preset {name!r}; have {sorted(PRESET_PATHS)}")
    return TreeTopology.from_paths(PRESET_PATHS[name])


@cache
def chain_topology(depth: int) -> TreeTopology:
    """The single path of ``depth`` first choices, built once per depth."""
    return TreeTopology.from_paths([(0,) * k for k in range(1, depth + 1)])


@cache
def resolve_topology(spec: str) -> TreeTopology:
    """Accept a preset name or a path to a topology file; a file is read once
    per process, as a preset is built once."""
    if spec in PRESET_PATHS:
        return preset_topology(spec)
    p = Path(spec)
    if p.exists():
        return load_topology(p)
    raise TopologyError(f"{spec!r} is neither a preset nor an existing file")


# -- cost-aware tree search ------------------------------------------------------


def path_counts(rank_vectors) -> Counter:
    """How many rank vectors start with each path.

    A round's rank vector (r_1..r_m) holds, per head, the rank of the target's
    greedy token in that head's top-k list, up to the first head whose list
    misses it. Greedy verification accepts exactly the longest prefix of it
    that is a tree path, so a path is accepted in a round iff the round's rank
    vector starts with it.
    """
    counts: Counter = Counter()
    for ranks in rank_vectors:
        ranks = tuple(ranks)
        counts.update(ranks[:d] for d in range(1, len(ranks) + 1))
    return counts


@dataclass(frozen=True)
class TreeCandidate:
    """A greedy tree and the tokens/step the calibration rounds predict for it."""

    topology: TreeTopology
    tokens_per_step: float  # predicted from the rank vectors


def greedy_trees(rank_vectors, depth: int, max_nodes: int = 64) -> list[TreeCandidate]:
    """The tree of greatest expected tokens/step at each node count, by node count.

    Paths are added in order of decreasing P(path) (Medusa's greedy
    accept-probability construction). A child is never more likely than its
    parent and ties go to the shorter path, so every prefix of that order is
    prefix-closed, and its sum of P is the largest any tree of that size
    reaches. A prefix that stops short of ``depth`` is extended by the
    choice-0 chain under its first deepest path, which gives every tree the
    depth that ``expand_tree`` requires; those nodes add their own P, usually
    0, to the expectation.
    """
    total = len(rank_vectors)
    if total == 0:
        raise ValueError("need at least one rank vector")
    if any(len(r) > depth for r in rank_vectors):
        raise ValueError(f"a rank vector is longer than the tree depth {depth}")
    if max_nodes < depth + 1:
        raise ValueError(f"max_nodes {max_nodes} cannot hold a depth-{depth} tree")
    counts = path_counts(rank_vectors)
    order = sorted(counts, key=lambda p: (-counts[p], len(p), p))
    best: dict[int, TreeCandidate] = {}
    for m in range(len(order) + 1):
        paths = order[:m]
        deepest = max(paths, key=len, default=())
        paths = paths + [deepest + (0,) * j for j in range(1, depth - len(deepest) + 1)]
        n = len(paths) + 1
        if n > max_nodes:
            break  # n never shrinks as m grows
        tps = 1.0 + sum(counts[p] for p in paths) / total
        if n not in best or tps > best[n].tokens_per_step:
            best[n] = TreeCandidate(TreeTopology.from_paths(paths), tps)
    return [best[n] for n in sorted(best)]


def search_topology(
    candidates: list[TreeCandidate], step_seconds: Callable[[int], float]
) -> TreeCandidate:
    """The candidate of greatest expected tokens per second.

    ``step_seconds(n)`` is the cost of one round with an n-node tree (draft
    plus tree round). Ties go to the earlier, smaller tree.
    """
    return max(candidates, key=lambda c: c.tokens_per_step / step_seconds(c.topology.node_count))


@dataclass
class DraftTree:
    """A topology populated with candidate tokens for one verification round."""

    topology: TreeTopology
    tokens: np.ndarray  # [node_count] int; root = last committed token
    probs: np.ndarray  # [node_count] draft probability, root = 1
    mask: np.ndarray  # [node_count, node_count] bool, ancestor-or-self
    head_dists: np.ndarray | None = None  # [K, V]; proposal dists for chain rule

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    @property
    def positions(self) -> np.ndarray:
        return self.topology.depth_array


def expand_tree(draft, topology: TreeTopology, last_token: int) -> DraftTree:
    """Fill a topology with head top-k tokens: the node at depth k with choice
    index c carries head k's c-th most probable token."""
    order = draft.order
    k_heads, k_max = order.shape
    if topology.depth_max != k_heads:
        raise TopologyError(
            f"topology depth {topology.depth_max} != head count {k_heads}"
        )
    if topology.max_choice >= k_max:
        path = next(p for p in topology.paths if p[-1] >= k_max)
        raise TopologyError(
            f"choice index {path[-1]} at depth {len(path)} exceeds head "
            f"{len(path)}'s top-k of {k_max}"
        )
    heads = topology.head_index
    tokens = np.empty(topology.node_count, dtype=np.int64)
    tokens[0] = last_token
    tokens[1:] = order[heads, topology.choice_index]
    probs = np.ones(topology.node_count, dtype=np.float64)
    probs[1:] = draft.probs[heads, tokens[1:]]
    return DraftTree(topology=topology, tokens=tokens, probs=probs, mask=topology.mask)


def sample_chain_tree(
    draft, topology: TreeTopology, last_token: int, rng: np.random.Generator
) -> DraftTree:
    """Fill a single-path topology with tokens *drawn* from each head's
    distribution, as required for rejection-sampling verification (the top-k
    tree is a deterministic proposal and would bias the accepted distribution)."""
    depth = topology.depth_max
    if topology.node_count != depth + 1:
        raise TopologyError(
            f"chain sampling needs a single-path topology, not {topology.node_count} nodes"
        )
    dists = draft.probs
    tokens = np.zeros(depth + 1, dtype=np.int64)
    probs = np.ones(depth + 1, dtype=np.float64)
    tokens[0] = last_token
    for k in range(depth):
        tok = categorical(dists[k], rng)
        tokens[k + 1] = tok
        probs[k + 1] = dists[k][tok]
    return DraftTree(
        topology=topology, tokens=tokens, probs=probs, mask=topology.mask, head_dists=dists
    )


@dataclass
class VerifyResult:
    accepted_nodes: list[int]  # root-to-node path, starts with 0
    bonus_token: int

    @property
    def accepted_len(self) -> int:
        return len(self.accepted_nodes) - 1

    @property
    def tokens_emitted(self) -> int:
        return self.accepted_len + 1


def chain_accept_step(
    p: np.ndarray, q: np.ndarray, token: int, rng: np.random.Generator
) -> tuple[bool, int | None]:
    """One rejection-sampling decision: accept ``token`` (drawn from q) with
    probability min(1, p/q); on rejection return a draw from the normalized
    residual max(0, p - q). Emitting the token on accept and the residual draw
    on reject reproduces ``p`` exactly."""
    ratio = 1.0 if q[token] <= 0 else min(1.0, p[token] / q[token])
    if rng.random() < ratio:
        return True, None
    residual = np.maximum(p - q, 0.0)
    total = residual.sum()
    if total <= 0:
        return False, categorical(p, rng)
    return False, categorical(residual / total, rng)


def verify(
    tree: DraftTree,
    node_logits,
    rule: str,
    temperature: float,
    rng: np.random.Generator | None = None,
) -> VerifyResult:
    """Walk the tree against the target's logits and pick the accepted path.

    greedy (T=0): descend into the child carrying the current node's argmax;
    the emitted tokens are exactly those of autoregressive greedy decoding.
    typical (T>0): accept children whose target probability clears an
    entropy-scaled threshold min(TYPICAL_EPSILON, TYPICAL_DELTA * exp(-H));
    descend by highest draft probability; bonus sampled from the stopping
    distribution.
    chain (T>0): single-path rejection sampling via ``chain_accept_step``.
    """
    logits = node_logits.data if isinstance(node_logits, Tensor) else np.asarray(node_logits)
    if logits.shape[0] != tree.node_count:
        raise ValueError("node_logits rows must match tree nodes")
    children = tree.topology.children

    if rule == "greedy":
        if temperature != 0:
            raise ValueError("greedy verification requires temperature 0")
        node = 0
        accepted = [0]
        while True:
            best = int(np.argmax(logits[node]))
            match = next((c for c in children[node] if tree.tokens[c] == best), None)
            if match is None:
                return VerifyResult(accepted_nodes=accepted, bonus_token=best)
            accepted.append(match)
            node = match

    if temperature <= 0:
        raise ValueError(f"{rule} verification requires temperature > 0")
    if rng is None:
        raise ValueError(f"{rule} verification requires an rng")

    if rule == "typical":
        node = 0
        accepted = [0]
        while True:
            p = stable_softmax(logits[node] / temperature)
            entropy = -np.sum(p * np.log(np.maximum(p, 1e-300)))
            threshold = min(TYPICAL_EPSILON, TYPICAL_DELTA * np.exp(-entropy))
            ok = [c for c in children[node] if p[tree.tokens[c]] >= threshold]
            if not ok:
                return VerifyResult(
                    accepted_nodes=accepted, bonus_token=categorical(p, rng)
                )
            node = max(ok, key=lambda c: (tree.probs[c], -c))
            accepted.append(node)

    if rule == "chain":
        if tree.head_dists is None:
            raise ValueError("chain verification needs the drafter's head distributions")
        if any(len(c) > 1 for c in children):
            raise ValueError("chain verification requires a single-path tree")
        node = 0
        accepted = [0]
        while children[node]:
            child = children[node][0]
            p = stable_softmax(logits[node] / temperature)
            q = tree.head_dists[tree.topology.depth[child] - 1]
            ok, bonus = chain_accept_step(p, q, int(tree.tokens[child]), rng)
            if not ok:
                return VerifyResult(accepted_nodes=accepted, bonus_token=bonus)
            accepted.append(child)
            node = child
        p = stable_softmax(logits[node] / temperature)
        return VerifyResult(accepted_nodes=accepted, bonus_token=categorical(p, rng))

    raise ValueError(f"unknown verification rule {rule!r}")


def commit(result: VerifyResult, tree: DraftTree, model_cache: KVCache) -> int:
    """Apply a verification outcome: compact the model cache to the accepted
    path and hand back the bonus token as the next round's root."""
    base = model_cache.length - tree.node_count
    if base < 0:
        raise ValueError(
            f"cache length {model_cache.length} is shorter than the tree "
            f"({tree.node_count} nodes); forward the tree before committing"
        )
    model_cache.select_path(base, result.accepted_nodes)
    return result.bonus_token
