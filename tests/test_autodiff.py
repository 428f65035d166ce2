"""Graph mechanics of the reverse-mode core: accumulation, broadcasting,
grad toggling, and the elementwise/reduction op gradients."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrousseg.autodiff import (Node, add, as_node, div,
                                is_grad_enabled, mul, no_grad, parameter)
from conftest import numeric_gradient, rel_err

TOL = 1e-7


class TestGraphMechanics:
    def test_scalar_chain(self):
        x = parameter(np.array(3.0))
        y = (x * 2.0 + 1.0) * x
        y.backward()
        assert y.item() == 21.0
        assert x.grad == pytest.approx(4 * 3.0 + 1.0)

    def test_diamond_accumulates_both_paths(self):
        x = parameter(np.array(2.0))
        a = x * 3.0
        b = x * 5.0
        out = a * b  # 15 x^2 -> d/dx = 30 x
        out.backward()
        assert x.grad == pytest.approx(60.0)

    def test_reused_node_accumulates(self):
        x = parameter(np.array([1.0, 2.0]))
        s = (x * x).sum() + x.sum()
        s.backward()
        assert np.allclose(x.grad, 2 * x.value + 1)

    def test_backward_requires_scalar(self):
        x = parameter(np.ones(3))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_grad_preallocated_and_zeroed(self):
        x = parameter(np.ones((2, 2)))
        assert x.grad.shape == (2, 2) and (x.grad == 0).all()
        (x.sum() * 2.0).backward()
        assert (x.grad == 2).all()
        x.zero_grad()
        assert (x.grad == 0).all()

    def test_no_grad_suspends_recording(self):
        x = parameter(np.array(1.0))
        with no_grad():
            assert not is_grad_enabled()
            y = x * 4.0
        assert y._backward is None and not y.requires_grad
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = parameter(np.array(2.0))
        y = (x * 3.0).detach() * x
        y.backward()
        assert x.grad == pytest.approx(6.0)  # only the live factor

    def test_constant_gets_no_grad(self):
        c = as_node(np.ones(4))
        assert not c.requires_grad and c.grad is None

    def test_as_node_passthrough(self):
        n = parameter(np.ones(2))
        assert as_node(n) is n
        m = as_node(np.zeros(2))
        assert isinstance(m, Node) and not m.requires_grad


class TestConsumedGraph:
    """Backward consumes the graph: one backward per forward."""

    def test_second_backward_on_same_root_raises(self):
        x = parameter(np.array([1.0, -2.0]))
        loss = (x * x).sum()
        loss.backward()
        before = x.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        assert np.array_equal(x.grad, before)

    def test_second_loss_on_consumed_subgraph_raises(self):
        x = parameter(np.array([1.0, -2.0]))
        out = x * 3.0
        first, second = out.sum(), (out * out).sum()
        first.backward()
        x_grad, out_grad = x.grad.copy(), out.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            second.backward()
        # nothing was accumulated before the error
        assert np.array_equal(x.grad, x_grad) and np.array_equal(out.grad, out_grad)
        assert second.grad is None

    def test_held_non_leaf_keeps_grad_and_drops_parents(self):
        x = parameter(np.array([1.0, -2.0]))
        h = x * 2.0
        (h * h).sum().backward()
        assert np.array_equal(h.grad, 2 * h.value)
        assert h._parents == ()
        assert np.array_equal(x.grad, 8 * x.value)

    def test_leaves_survive_for_the_next_forward(self):
        x = parameter(np.array([1.0, -2.0]))
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.array_equal(x.grad, [5.0, 5.0])

    def test_intermediate_values_are_freed(self):
        x = parameter(np.ones(3))

        def loss_and_probe():
            mid = x * 2.0
            return (mid * mid).sum(), weakref.ref(mid.value)

        loss, probe = loss_and_probe()
        assert probe() is not None  # the graph holds it until backward
        loss.backward()
        assert probe() is None


class TestBroadcastGradients:
    """Gradients must sum back down broadcast axes."""

    @given(st.sampled_from([(3, 1), (1, 4), (1, 1), (4,), ()]))
    @settings(max_examples=20, deadline=None)
    def test_add_unbroadcast(self, shape):
        rng = np.random.default_rng(0)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=shape))
        (a + b).sum().backward()
        assert a.grad.shape == a.value.shape
        assert b.grad.shape == b.value.shape
        assert b.grad.sum() == pytest.approx(12.0)

    def test_mul_broadcast_numeric(self):
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=(2, 3))
        b0 = rng.normal(size=(3,))
        a, b = parameter(a0), parameter(b0)
        ((a * b) * (a * b)).sum().backward()

        gb = numeric_gradient(lambda v: ((a0 * v) ** 2).sum(), b0.copy())
        assert rel_err(b.grad, gb) < TOL


class TestConstantOperands:
    """add, mul and div compute no gradient for an operand that needs none;
    the other operand's gradient is the same expression as before, bit for
    bit."""

    # op, then the parameter's gradient from upstream g, parameter value p
    # and constant value c, with the parameter first and with it second
    CASES = {
        "add": (add, lambda g, p, c: g, lambda g, p, c: g),
        "mul": (mul, lambda g, p, c: g * c, lambda g, p, c: g * c),
        "div": (div, lambda g, p, c: g / c, lambda g, p, c: -g * c / (p * p)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("param_first", [True, False])
    def test_constant_gets_no_grad_and_parameter_grad_unchanged(
            self, rng, name, param_first):
        op, grad_first, grad_second = self.CASES[name]
        p0 = rng.uniform(0.5, 2.0, size=(3,)).astype(np.float32)
        c0 = rng.uniform(0.5, 2.0, size=(2, 3))  # f64, broadcasts p
        t = rng.normal(size=(2, 3))
        p, c = parameter(p0), as_node(c0)
        out = op(p, c) if param_first else op(c, p)
        (out * t).sum().backward()  # out's upstream gradient is t exactly
        grad = grad_first if param_first else grad_second
        assert c.grad is None
        assert np.array_equal(p.grad, grad(t, p0, c0).sum(axis=0))
        assert p.grad.dtype == np.float64


class TestOpGradients:
    def check(self, build, x0):
        x = parameter(x0.copy())
        build(x).backward()
        num = numeric_gradient(lambda v: build(parameter(v)).item(), x0.copy())
        assert rel_err(x.grad, num) < TOL

    def test_div(self, rng):
        x0 = rng.uniform(0.5, 2.0, size=(3, 3))
        self.check(lambda x: (x / (x + 2.0)).sum(), x0)

    def test_power(self, rng):
        x0 = rng.uniform(0.5, 2.0, size=(4,))
        self.check(lambda x: (x ** 3).sum(), x0)

    def test_neg_sub(self, rng):
        x0 = rng.normal(size=(5,))
        self.check(lambda x: (-x - 1.0).sum() + (2.0 - x).sum(), x0)

    def test_sum_axis_keepdims(self, rng):
        x0 = rng.normal(size=(2, 3, 4))
        self.check(lambda x: (x.sum(axis=(0, 2), keepdims=True) ** 2).sum(), x0)

    def test_mean(self, rng):
        x0 = rng.normal(size=(6,))
        self.check(lambda x: (x.mean() ** 2).sum(), x0)

    @pytest.mark.parametrize("axis", [0, -1, (0, 2), (1, 2)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_axis_keepdims(self, rng, axis, keepdims):
        x0 = rng.normal(size=(2, 3, 4))
        got = parameter(x0).mean(axis=axis, keepdims=keepdims).value
        want = np.mean(x0, axis=axis, keepdims=keepdims)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        self.check(lambda x: (x.mean(axis=axis, keepdims=keepdims) ** 2).sum(), x0)

    def test_rdiv(self, rng):
        x0 = rng.uniform(1.0, 2.0, size=(3,))
        self.check(lambda x: (1.0 / x).sum(), x0)
