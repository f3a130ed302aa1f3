"""Numerics: op-level oracles, autodiff chain-rule checks, and properties."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amphista import nn
from amphista import tensor as T
from amphista.tensor import DimensionError, NonFiniteError, Parameter, Tensor

from gradcheck import grad_check


def finite_difference(fn, params, eps=1e-6):
    """Central differences over every entry of every parameter (f64)."""
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn().item()
            flat[i] = orig - eps
            f_minus = fn().item()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2 * eps)
        grads.append(g.reshape(p.data.shape))
    return grads


def assert_matches_finite_differences(fn, params, tol=1e-4):
    for p in params:
        p.zero_grad()
    fn().backward()
    fd = finite_difference(fn, params)
    for p, g_fd in zip(params, fd):
        g_ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), 1e-4)
        rel = np.abs(g_ad - g_fd) / denom
        assert rel.max() <= tol, f"max rel err {rel.max():.2e}"
        p.zero_grad()


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_projector(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_random_vs_scalar_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = T.matmul(Tensor(a), Tensor(b)).data
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                acc = 0.0
                for k in range(4):
                    acc += a[i, k] * b[k, j]
                want[i, j] = acc
        assert np.abs(got - want).max() <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))
        got = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(5):
            assert np.allclose(got[i], a[i] @ b)

    @pytest.mark.parametrize("a_shape", [(5, 3, 4), (2, 3, 4, 5)])
    @pytest.mark.parametrize("b_vector", [False, True])
    def test_batched_rows_times_weight_gradients(self, a_shape, b_vector):
        """A 2-D or 1-D ``b`` takes its gradient from one product over every
        row of a batched ``a``; both gradients match the closed forms."""
        rng = np.random.default_rng(15)
        d_in = a_shape[-1]
        a = Parameter(rng.standard_normal(a_shape))
        b = Parameter(rng.standard_normal((d_in,) if b_vector else (d_in, 3)))
        out_shape = a_shape[:-1] if b_vector else a_shape[:-1] + (3,)
        g = rng.standard_normal(out_shape)
        T.tsum(T.mul(T.matmul(a, b), Tensor(g))).backward()
        g2 = g[..., None] if b_vector else g
        b2 = b.data[:, None] if b_vector else b.data
        batch = "abc"[: len(a_shape) - 1]
        want_b = np.einsum(f"{batch}i,{batch}j->ij", a.data, g2)
        assert np.abs(b.grad - (want_b[:, 0] if b_vector else want_b)).max() <= 1e-12
        assert np.abs(a.grad - g2 @ b2.T).max() <= 1e-12

    @pytest.mark.parametrize("op", ["matmul", "mul"])
    def test_frozen_operand_gets_no_gradient(self, op):
        """A frozen or constant operand keeps ``grad is None``, and the other
        operand's gradient is the bits it has when both are trainable."""
        rng = np.random.default_rng(16)
        a_data = rng.standard_normal((2, 4, 4))
        b_data = rng.standard_normal((4, 4))
        g = rng.standard_normal((2, 4, 4))
        fn = getattr(T, op)

        def b_grad(a_trainable):
            a = Parameter(a_data.copy())
            a.requires_grad = a_trainable
            b = Parameter(b_data.copy())
            T.tsum(T.mul(fn(a, b), Tensor(g))).backward()
            assert (a.grad is None) != a_trainable
            return b.grad

        assert np.array_equal(b_grad(False), b_grad(True))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_shift_invariance_c100(self):
        x = np.array([0.0, 1.5, -2.0, 0.25])
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 100.0)).data
        assert np.abs(a - b).max() <= 1e-6

    def test_against_extended_precision_oracle(self):
        x = [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            exps = [mpmath.e**v for v in x]
            total = sum(exps)
            want = np.array([float(e / total) for e in exps])
        got = T.softmax(Tensor(x)).data
        assert np.abs(got - want).max() <= 1e-6

    def test_empty_axis_errors(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor(np.zeros((3, 0))))
        with pytest.raises(DimensionError):
            T.softmax(Tensor(np.asarray(1.0)))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8), st.floats(-50, 50))
    def test_shift_invariance_property(self, xs, c):
        a = T.softmax(Tensor(xs)).data
        b = T.softmax(Tensor([x + c for x in xs])).data
        assert np.abs(a - b).max() <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stable_softmax_matches_the_inline_forms_bit_for_bit(self, dtype):
        """``stable_softmax`` replaced these hand-written forms; every
        checkpoint, event log and CSV stays byte-identical only while it
        matches them exactly."""

        def row_in_place(row):  # model.sample, drafter.topk_lists
            probs = np.exp(row - row.max())
            probs /= probs.sum()
            return probs

        def row_divided(row):  # speculation._temperature_dist
            p = np.exp(row - row.max())
            return p / p.sum()

        def block(rows):  # speculation._head_dists, training.teacher_forced, T.softmax
            ex = np.exp(rows - rows.max(axis=-1, keepdims=True))
            return ex / ex.sum(axis=-1, keepdims=True)

        rng = np.random.default_rng(11)
        for vocab in (7, 256, 4099):
            rows = (rng.standard_normal((3, 4, vocab)) * 4).astype(dtype)
            assert np.array_equal(T.stable_softmax(rows), block(rows))
            for head_block in rows:
                got = T.stable_softmax(head_block)
                for k, row in enumerate(head_block):
                    assert np.array_equal(got[k], row_in_place(row))
                for temperature in (1.0, 0.8, 0.7):
                    for row in head_block:
                        got = T.stable_softmax(row / temperature)
                        assert np.array_equal(got, row_in_place(row / temperature))
                        assert np.array_equal(got, row_divided(row / temperature))


class TestCrossEntropy:
    def test_uniform_hard(self):
        logits = Tensor([0.0, 0.0, 0.0, 0.0])
        for idx in range(4):
            got = T.cross_entropy(logits, np.asarray(idx)).item()
            assert got == pytest.approx(math.log(4), abs=1e-12)

    def test_soft_self_target_is_entropy(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal(6))
        p = T.softmax(logits).data
        entropy = -(p * np.log(p)).sum()
        got = T.cross_entropy(logits, p).item()
        assert got == pytest.approx(entropy, abs=1e-12)

    def test_hard_scalar_oracle(self):
        # independent scalar-path computation of -log softmax([2,0,0])[0]
        want = -math.log(math.exp(2.0) / (math.exp(2.0) + 2.0))
        got = T.cross_entropy(Tensor([2.0, 0.0, 0.0]), np.asarray(0)).item()
        assert got == pytest.approx(want, abs=1e-6)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor([0.0, 1.0]), np.asarray(2))

    def test_soft_target_must_normalize(self):
        with pytest.raises(ValueError):
            T.cross_entropy(Tensor([0.0, 1.0]), np.array([0.9, 0.4]))

    @given(st.integers(0, 10_000))
    def test_gibbs_inequality(self, seed):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.standard_normal(8))
        p_self = T.softmax(logits).data
        q = rng.dirichlet(np.ones(8))
        best = T.cross_entropy(logits, p_self).item()
        other = T.cross_entropy(logits, q).item()
        assert best <= other + 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        w = Parameter(np.array([1.0, 2.0, 3.0]))
        T.tsum(w).backward()
        assert np.array_equal(w.grad, np.ones(3))

    def test_dot_quadratic(self):
        w = Parameter(np.array([1.0, 2.0]))
        T.tsum(T.mul(w, w)).backward()
        assert np.allclose(w.grad, [2.0, 4.0])

    def test_repeated_backward_accumulates(self):
        w = Parameter(np.array([1.0, 1.0]))
        T.tsum(w).backward()
        T.tsum(w).backward()
        assert np.array_equal(w.grad, [2.0, 2.0])
        w.zero_grad()
        T.tsum(w).backward()
        assert np.array_equal(w.grad, [1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        w = Parameter(np.ones(3))
        with pytest.raises(DimensionError):
            T.mul(w, w).backward()

    def test_first_gradients_share_no_memory(self):
        """``add`` hands one array to both parents; each stores its own copy."""
        rng = np.random.default_rng(17)
        a = Parameter(rng.standard_normal((2, 3)))
        b = Parameter(rng.standard_normal((2, 3)))
        c = T.add(a, b)
        T.tsum(T.mul(c, Tensor(rng.standard_normal((2, 3))))).backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, c.grad)
        assert not np.shares_memory(b.grad, c.grad)

    @pytest.mark.parametrize("add_first", [True, False])
    @pytest.mark.parametrize("swap", [False, True])
    def test_second_gradient_leaves_the_sibling_alone(self, add_first, swap):
        """``a`` takes a second gradient after ``add`` gave ``a`` and ``b`` the
        same array, in either order; ``b``'s gradient stays exactly ones."""
        a = Parameter(np.array([1.0, 2.0, 3.0]))
        b = Parameter(np.array([4.0, 5.0, 6.0]))
        c = Tensor(np.array([0.5, -1.0, 2.0]))
        summed = T.tsum(T.add(b, a) if swap else T.add(a, b))
        scaled = T.tsum(T.mul(a, c))
        (T.add(summed, scaled) if add_first else T.add(scaled, summed)).backward()
        assert np.array_equal(b.grad, np.ones(3))
        assert np.array_equal(a.grad, 1.0 + c.data)

    def test_read_only_broadcast_first_gradient_accumulates(self):
        """``tsum``'s backward hands ``_accum`` a read-only broadcast view."""
        w = Parameter(np.array([1.0, 2.0, 3.0]))
        T.add(T.tsum(w), T.tsum(w)).backward()
        assert np.array_equal(w.grad, [2.0, 2.0, 2.0])
        assert w.grad.flags.writeable and w.grad.flags.c_contiguous

    def test_no_grad_blocks_tape(self):
        w = Parameter(np.ones(3))
        with T.no_grad():
            out = T.tsum(w)
        assert not out.requires_grad


@pytest.mark.parametrize("seed", range(5))
def test_chain_rule_on_composed_ops(seed):
    """Autodiff equals finite differences through a mixed-op network."""
    rng = np.random.default_rng(seed)
    w1 = Parameter(rng.standard_normal((5, 4)) * 0.5)
    b1 = Parameter(rng.standard_normal(4) * 0.1)
    w2 = Parameter(rng.standard_normal((4, 3)) * 0.5)
    gain = Parameter(np.ones(4))
    x = Tensor(rng.standard_normal((2, 5)))
    target = np.array([0, 2])

    def fn():
        h = T.silu(T.add(T.matmul(x, w1), b1))
        h = T.rms_norm(h, gain)
        logits = T.matmul(h, w2)
        return T.cross_entropy(logits, target)

    assert_matches_finite_differences(fn, [w1, b1, w2, gain])


class TestRequiredOpGradients:
    """Each auxiliary op must pass the chain-rule property."""

    def test_add_mul(self):
        rng = np.random.default_rng(3)
        a = Parameter(rng.standard_normal((2, 3)))
        b = Parameter(rng.standard_normal(3))  # broadcast
        assert_matches_finite_differences(
            lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), [a, b]
        )

    def test_concat(self):
        rng = np.random.default_rng(4)
        a = Parameter(rng.standard_normal((2, 2)))
        b = Parameter(rng.standard_normal((3, 2)))
        assert_matches_finite_differences(
            lambda: T.tsum(T.mul(T.concat([a, b], axis=0), T.concat([a, b], axis=0))),
            [a, b],
        )

    def test_rms_norm(self):
        rng = np.random.default_rng(5)
        x = Parameter(rng.standard_normal((3, 4)))
        gain = Parameter(rng.standard_normal(4))
        assert_matches_finite_differences(
            lambda: T.tsum(T.mul(T.rms_norm(x, gain), Tensor(rng1_const))), [x, gain]
        )

    def test_silu(self):
        x = Parameter(np.linspace(-2, 2, 7))
        assert_matches_finite_differences(lambda: T.tsum(T.mul(T.silu(x), T.silu(x))), [x])

    def test_embedding(self):
        rng = np.random.default_rng(6)
        table = Parameter(rng.standard_normal((5, 3)))
        ids = np.array([0, 2, 2, 4])
        assert_matches_finite_differences(
            lambda: T.tsum(T.mul(T.embedding(table, ids), T.embedding(table, ids))),
            [table],
        )

    def test_softmax_grad(self):
        rng = np.random.default_rng(8)
        x = Parameter(rng.standard_normal((2, 4)))
        w = Tensor(rng.standard_normal((2, 4)))
        assert_matches_finite_differences(lambda: T.tsum(T.mul(T.softmax(x), w)), [x])

    def test_select_narrow_transpose_reshape(self):
        rng = np.random.default_rng(9)
        x = Parameter(rng.standard_normal((3, 4, 2)))

        def fn():
            y = T.select(x, 1, axis=1)  # [3, 2]
            z = T.narrow(x, 0, 0, 2)  # [2, 4, 2]
            zz = T.reshape(T.transpose(z, (1, 0, 2)), (4, 4))
            return T.add(T.tsum(T.mul(y, y)), T.tsum(T.mul(zz, zz)))

        assert_matches_finite_differences(fn, [x])


rng1_const = np.random.default_rng(11).standard_normal((3, 4))


class TestFiniteChecks:
    def test_nan_input_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    )
    def test_ops_stay_finite_at_large_magnitudes(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = Tensor(xs[:n]), Tensor(ys[:n])
        T.softmax(a)
        T.silu(a)
        T.add(a, b)
        T.mul(a, b)
        T.rms_norm(a, Tensor(np.ones(n)))
        T.cross_entropy(a, np.asarray(0))  # stays finite even at +/-1e3 logits


class TestGradCheck:
    def test_passes_on_quadratic(self):
        rng = np.random.default_rng(12)
        w = Parameter(rng.standard_normal((4, 3)), name="w")
        x = Tensor(rng.standard_normal(4))

        def fn():
            y = T.matmul(x, w)
            return T.tsum(T.mul(y, y))

        report = grad_check(fn, [w], eps=1e-3, tol=1e-5)
        assert report.passed, str(report)

    def test_passes_through_linear_on_auto_embedding_rows(self):
        """A Linear on [B, T, K, d] rows, the auto-embedding block's shape."""
        rng = np.random.default_rng(18)
        lin = nn.Linear(5, 3, rng)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)))

        def fn():
            y = lin(x)
            return T.tsum(T.mul(y, y))

        report = grad_check(fn, lin.parameters(), eps=1e-3, tol=1e-5)
        assert report.passed, str(report)
        assert sorted(report.max_rel_err) == ["bias", "weight"]

    def test_frozen_parameter_excluded(self):
        rng = np.random.default_rng(13)
        w = Parameter(rng.standard_normal(3), name="w")
        frozen = Parameter(rng.standard_normal(3), name="frozen")
        frozen.requires_grad = False

        def fn():
            return T.tsum(T.mul(w, Tensor(frozen.data)))

        report = grad_check(fn, [w, frozen])
        assert report.passed
        assert report.frozen == ["frozen"]
        assert "w" in report.max_rel_err and "frozen" not in report.max_rel_err

    def test_corrupted_backward_is_named(self):
        rng = np.random.default_rng(14)
        w = Parameter(rng.standard_normal(3), name="broken")

        def bad_square(t):
            out = Tensor(t.data * t.data)
            out.requires_grad = True
            out._parents = (t,)
            out._backward_fn = lambda g: T._accum(t, g * 3.0 * t.data)  # wrong rule
            return out

        report = grad_check(lambda: T.tsum(bad_square(w)), [w])
        assert not report.passed
        assert report.failures == ["broken"]
        assert "broken" in str(report)

    def test_nondeterministic_fn_detected(self):
        w = Parameter(np.ones(2), name="w")
        state = {"n": 0.0}

        def fn():
            state["n"] += 1.0
            return T.tsum(T.mul(w, Tensor(np.full(2, state["n"]))))

        with pytest.raises(RuntimeError, match="non-deterministic"):
            grad_check(fn, [w])
