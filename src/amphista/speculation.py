"""Draft trees: topology, attention mask, token expansion, verification, commit.

Topologies use the path encoding common to multi-head drafting systems: each
non-root node is the tuple of per-depth choice indices leading to it, e.g.
"0,1,0" is the 0th choice under the 1st choice under the 0th choice. Files
hold one path per line, so published sparse trees can be pasted in directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .model import KVCache, categorical
from .tensor import Tensor

Path_ = tuple[int, ...]


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
        mask = build_mask(self)
        mask.flags.writeable = False
        return mask

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p].append(i)
        return out

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


def _fanout_paths(fanouts_by_depth: list[dict[Path_, int]]) -> list[Path_]:
    paths: list[Path_] = []
    for fanouts in fanouts_by_depth:
        for parent, n in fanouts.items():
            paths.extend(parent + (c,) for c in range(n))
    return paths


# Hand-written sparse trees (depth 4): wide at shallow depths, narrowing along
# the first-choice spine, mirroring the shape of learned 64-node trees.
_SPARSE64 = _fanout_paths(
    [
        {(): 8},
        {(0,): 6, (1,): 5, (2,): 4, (3,): 3, (4,): 2, (5,): 2, (6,): 1, (7,): 1},
        {(0, 0): 5, (0, 1): 3, (0, 2): 2, (1, 0): 3, (1, 1): 2, (2, 0): 2, (3, 0): 1, (4, 0): 1},
        {(0, 0, 0): 4, (0, 0, 1): 2, (0, 1, 0): 2, (1, 0, 0): 2, (2, 0, 0): 1, (0, 2, 0): 1},
    ]
)
_SPARSE35 = _fanout_paths(
    [
        {(): 6},
        {(0,): 4, (1,): 3, (2,): 2, (3,): 2, (4,): 1, (5,): 1},
        {(0, 0): 3, (0, 1): 2, (1, 0): 2, (2, 0): 1, (0, 2): 1},
        {(0, 0, 0): 3, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
    ]
)
_SPARSE22 = _fanout_paths(
    [
        {(): 4},
        {(0,): 3, (1,): 2, (2,): 1, (3,): 1},
        {(0, 0): 2, (0, 1): 1, (1, 0): 1, (2, 0): 1},
        {(0, 0, 0): 2, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
    ]
)

PRESET_PATHS: dict[str, list[Path_]] = {
    "chain": [(0,) * k for k in range(1, 5)],
    "cart45": cartesian_paths([4, 2, 2, 1]),
    "sparse22": _SPARSE22,
    "sparse35": _SPARSE35,
    "sparse64": _SPARSE64,
}

# Budgets for the node-count sweep; 5 is the degenerate single-path tree.
NODE_BUDGET_PRESETS = {5: "chain", 22: "sparse22", 35: "sparse35", 45: "cart45", 64: "sparse64"}


def preset_topology(name: str) -> TreeTopology:
    if name not in PRESET_PATHS:
        raise TopologyError(f"unknown preset {name!r}; have {sorted(PRESET_PATHS)}")
    return TreeTopology.from_paths(PRESET_PATHS[name])


def resolve_topology(spec: str) -> TreeTopology:
    """Accept a preset name or a path to a topology file."""
    if spec in PRESET_PATHS:
        return preset_topology(spec)
    p = Path(spec)
    if p.exists():
        return load_topology(p)
    raise TopologyError(f"{spec!r} is neither a preset nor an existing file")


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
        return np.asarray(self.topology.depth)


def expand_tree(draft, topology: TreeTopology, last_token: int) -> DraftTree:
    """Fill a topology with head top-k tokens: the node at depth k with choice
    index c carries head k's c-th most probable token."""
    k_heads = len(draft.topk)
    if topology.depth_max != k_heads:
        raise TopologyError(
            f"topology depth {topology.depth_max} != head count {k_heads}"
        )
    n = topology.node_count
    tokens = np.zeros(n, dtype=np.int64)
    probs = np.ones(n, dtype=np.float64)
    tokens[0] = last_token
    for i, path in enumerate(topology.paths, start=1):
        head = len(path) - 1
        choice = path[-1]
        if choice >= len(draft.topk[head]):
            raise TopologyError(
                f"choice index {choice} at depth {len(path)} exceeds head "
                f"{head + 1}'s top-k of {len(draft.topk[head])}"
            )
        tokens[i], probs[i] = draft.topk[head][choice]
    return DraftTree(topology=topology, tokens=tokens, probs=probs, mask=topology.mask)


def sample_chain_tree(
    draft, depth: int, last_token: int, rng: np.random.Generator
) -> DraftTree:
    """Single-path tree whose tokens are *drawn* from each head's distribution,
    as required for rejection-sampling verification (the top-k tree is a
    deterministic proposal and would bias the accepted distribution)."""
    dists = _head_dists(draft)
    topology = TreeTopology.from_paths([(0,) * k for k in range(1, depth + 1)])
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


def _head_dists(draft) -> np.ndarray:
    rows = draft.d_logits.data if isinstance(draft.d_logits, Tensor) else np.asarray(draft.d_logits)
    shifted = rows - rows.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


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


def _temperature_dist(logits_row: np.ndarray, temperature: float) -> np.ndarray:
    scaled = logits_row / temperature
    shifted = scaled - scaled.max()
    p = np.exp(shifted)
    return p / p.sum()


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
    epsilon: float = 0.09,
    delta: float = 0.3,
) -> VerifyResult:
    """Walk the tree against the target's logits and pick the accepted path.

    greedy (T=0): descend into the child carrying the current node's argmax;
    the emitted tokens are exactly those of autoregressive greedy decoding.
    typical (T>0): accept children whose target probability clears an
    entropy-scaled threshold min(epsilon, delta * exp(-H)); descend by
    highest draft probability; bonus sampled from the stopping distribution.
    chain (T>0): single-path rejection sampling via ``chain_accept_step``.
    """
    logits = node_logits.data if isinstance(node_logits, Tensor) else np.asarray(node_logits)
    if logits.shape[0] != tree.node_count:
        raise ValueError("node_logits rows must match tree nodes")
    children = tree.topology.children()

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
            p = _temperature_dist(logits[node], temperature)
            entropy = -np.sum(p * np.log(np.maximum(p, 1e-300)))
            threshold = min(epsilon, delta * np.exp(-entropy))
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
            p = _temperature_dist(logits[node], temperature)
            q = tree.head_dists[tree.topology.depth[child] - 1]
            ok, bonus = chain_accept_step(p, q, int(tree.tokens[child]), rng)
            if not ok:
                return VerifyResult(accepted_nodes=accepted, bonus_token=bonus)
            accepted.append(child)
            node = child
        p = _temperature_dist(logits[node], temperature)
        return VerifyResult(accepted_nodes=accepted, bonus_token=categorical(p, rng))

    raise ValueError(f"unknown verification rule {rule!r}")


def commit(result: VerifyResult, tree: DraftTree, model_cache: KVCache, draft_state) -> int:
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
