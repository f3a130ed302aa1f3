"""Desk-scale speculative decoding: a trainable toy target model, a
multi-head draft module with staged adaptation and cross-head attention,
tree-verified decoding, and a benchmark harness."""

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Corpus, CorpusSpec, detokenize, make_corpus, tokenize
from .drafter import DraftOutput, Drafter, DrafterConfig, DraftState, variant_config
from .engine import ar_generate, speculative_generate
from .model import KVCache, ModelConfig, TargetModel, TargetOutput, sample
from .speculation import (
    DraftTree,
    TreeTopology,
    VerifyResult,
    build_mask,
    commit,
    expand_tree,
    verify,
)
from .tensor import Parameter, Tensor, no_grad
from .training import AdamW, LossWeights, Schedule, TrainConfig, compute_losses, lr_at, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "Corpus",
    "CorpusSpec",
    "DraftOutput",
    "DraftState",
    "DraftTree",
    "Drafter",
    "DrafterConfig",
    "KVCache",
    "LossWeights",
    "ModelConfig",
    "Parameter",
    "Schedule",
    "TargetModel",
    "TargetOutput",
    "Tensor",
    "TrainConfig",
    "TreeTopology",
    "VerifyResult",
    "ar_generate",
    "build_mask",
    "commit",
    "compute_losses",
    "detokenize",
    "expand_tree",
    "load_checkpoint",
    "lr_at",
    "make_corpus",
    "no_grad",
    "sample",
    "save_checkpoint",
    "speculative_generate",
    "tokenize",
    "train",
    "variant_config",
    "verify",
]
