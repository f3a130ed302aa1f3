"""Checkpoint container: bit-exact round-trips and malformed-input handling."""

import numpy as np
import pytest

from amphista.checkpoint import (
    MAGIC,
    CheckpointError,
    dump_state,
    load_checkpoint,
    load_state,
    save_checkpoint,
)


def random_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "target.token_emb": rng.standard_normal((7, 3)),
        "drafter.pe": rng.standard_normal((4, 3)).astype(np.float32),
        "scalar": np.asarray(rng.standard_normal()),
    }


class TestRoundTrip:
    def test_bit_exact(self):
        state = random_state()
        back = load_state(dump_state(state))
        assert set(back) == set(state)
        for name, arr in state.items():
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()

    def test_serialization_is_stable(self):
        state = random_state(1)
        assert dump_state(state) == dump_state(load_state(dump_state(state)))

    def test_file_round_trip(self, tmp_path):
        state = random_state(2)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert back["target.token_emb"].tobytes() == state["target.token_emb"].tobytes()


class TestValidation:
    def test_bad_magic(self):
        blob = dump_state(random_state())
        with pytest.raises(CheckpointError, match="magic"):
            load_state(b"XXXXXXXX" + blob[8:])
        assert blob[:8] == MAGIC

    def test_truncated_payload(self):
        """Every proper prefix of a valid blob, the header and each entry's
        fields included, is rejected by name."""
        blob = dump_state(random_state())
        for end in range(len(blob)):
            with pytest.raises(CheckpointError):
                load_state(blob[:end])

    def test_trailing_bytes(self):
        """Bytes after the last entry, two checkpoints back to back included,
        are rejected with their count."""
        blob = dump_state(random_state())
        for tail, unread in ((b"garbage!", 8), (blob, len(blob))):
            with pytest.raises(CheckpointError, match=f"^{unread} unread bytes"):
                load_state(blob + tail)

    def test_rejects_non_utf8_name(self):
        blob = dump_state({"ab": np.ones(2)})
        with pytest.raises(CheckpointError, match="after 0 complete entries: 'utf-8'"):
            load_state(blob.replace(b"ab", b"\xff\xfe", 1))

    def test_rejects_empty_name(self):
        with pytest.raises(CheckpointError):
            dump_state({"": np.ones(2)})

    def test_rejects_non_float(self):
        with pytest.raises(CheckpointError):
            dump_state({"ids": np.arange(3)})
