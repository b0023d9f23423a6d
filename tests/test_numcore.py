"""Numeric core: autodiff against finite differences, stability, RNG, Adam.

Frozen constants were computed once with mpmath at 50 digits (sigmoid,
softmax, log_sum_exp oracles) or by hand from the defining formulas, and are
asserted at tolerances well inside double precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draws import integers
from fremure import numcore as nc
from fremure.errors import ContractError
from gradcheck import finite_diff_check

# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = nc.layer_norm(nc.Tensor([2.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0])


def test_layer_norm_two_point_row():
    # (x - mean)/sqrt(var + eps) with mean 0, var 1: 1/sqrt(1 + 1e-5)
    assert nc.LN_EPS == 1e-5
    out = nc.layer_norm(nc.Tensor([1.0, -1.0]))
    expect = 0.9999950000374997
    assert out.data == pytest.approx([expect, -expect], abs=1e-15)


def test_layer_norm_idempotent_up_to_eps():
    rng = nc.Rng(11)
    x = nc.Tensor(rng.normals((4, 7)) * 3.0)
    once = nc.layer_norm(x).data
    twice = nc.layer_norm(nc.layer_norm(x)).data
    assert np.max(np.abs(once - twice)) < 1e-4


def test_layer_norm_rejects_empty_last_axis():
    with pytest.raises(ContractError):
        nc.layer_norm(nc.Tensor(np.zeros((2, 0))))


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=16))
def test_layer_norm_output_mean_near_zero(row):
    out = nc.layer_norm(nc.Tensor(row)).data
    assert abs(out.mean()) < 1e-10


# ---------------------------------------------------------------------------
# sigmoid / softmax / log_sum_exp
# ---------------------------------------------------------------------------


def test_sigmoid_closed_forms():
    assert nc.sigmoid(nc.Tensor(0.0)).item() == 0.5
    assert nc.sigmoid(nc.Tensor(math.log(2.0))).item() == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_sigmoid_far_negative_stable():
    got = nc.sigmoid(nc.Tensor(-30.0)).item()
    assert 0.0 < got <= 1e-12
    assert got == pytest.approx(9.357622968839299e-14, rel=1e-12)


def test_sigmoid_extreme_inputs_bounded():
    out = nc.sigmoid(nc.Tensor([-1000.0, 1000.0])).data
    assert np.all(np.isfinite(out))
    assert 0.0 < out[0] < out[1] <= 1.0


def test_sigmoid_matches_sign_split_reference():
    # reference: the sign split with boolean masks, to be matched bit for bit
    def reference(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        out[~pos] = ez / (1.0 + ez)
        return np.clip(out, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))

    special = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 709.8, -709.8, 36.8, -36.8]
    x = np.concatenate([special, nc.Rng(77).normals(20000) * 40.0])
    np.testing.assert_array_equal(nc.sigmoid(nc.Tensor(x)).data, reference(x))


def test_softmax_symmetry_and_overflow():
    assert nc.softmax(nc.Tensor([0.0, 0.0])).data == pytest.approx([0.5, 0.5])
    big = nc.softmax(nc.Tensor([1000.0, 1000.0])).data
    assert np.all(np.isfinite(big))
    assert big == pytest.approx([0.5, 0.5])


def test_softmax_against_high_precision():
    got = nc.softmax(nc.Tensor([1.0, 2.0, 3.0])).data
    expect = [0.09003057317038046, 0.24472847105479765, 0.6652409557748219]
    assert got == pytest.approx(expect, abs=1e-15)


def test_softmax_invalid_axis():
    # softmax runs along the last axis, which a 0-d tensor lacks
    with pytest.raises(ContractError):
        nc.softmax(nc.Tensor(1.0))
    with pytest.raises(ContractError):
        nc.log_softmax(nc.Tensor(1.0))


@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
)
def test_softmax_rows_sum_to_one(row):
    total = nc.softmax(nc.Tensor(row)).data.sum()
    assert abs(total - 1.0) < 1e-12


def test_log_sum_exp_values():
    assert nc.log_sum_exp(nc.Tensor([0.0, 0.0]), -1).item() == pytest.approx(math.log(2.0), abs=1e-15)
    assert nc.log_sum_exp(nc.Tensor([-3.7]), -1).item() == -3.7  # single element is exact
    got = nc.log_sum_exp(nc.Tensor([-1000.0, -1001.0]), -1).item()
    assert got == pytest.approx(-999.6867383124818, abs=1e-12)


@given(st.lists(st.floats(-1000, 1000, allow_nan=False), min_size=1, max_size=8))
def test_log_sum_exp_finite_at_large_magnitude(row):
    assert np.isfinite(nc.log_sum_exp(nc.Tensor(row), -1).item())


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_square():
    x = nc.Tensor([3.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, [6.0])


def test_backward_sigmoid_at_zero():
    w = nc.Tensor([0.0], requires_grad=True)
    x = nc.Tensor([1.0])
    nc.sigmoid((w * x).sum()).backward()
    assert np.allclose(w.grad, [0.25])


def test_backward_accumulates_until_reset():
    x = nc.Tensor([2.0], requires_grad=True)
    for _ in range(2):
        (x * x).sum().backward()
    assert np.allclose(x.grad, [8.0])
    x.grad = None
    (x * x).sum().backward()
    assert np.allclose(x.grad, [4.0])


def test_backward_rejects_non_scalar():
    x = nc.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_backward_shared_subexpression():
    a = nc.Tensor([3.0], requires_grad=True)
    b = a * 2.0
    (b * b + b).sum().backward()  # d/da of 4a^2 + 2a
    assert np.allclose(a.grad, [26.0])


def test_backward_two_layer_gated_network_matches_fd():
    rng = nc.Rng(17)
    w1 = nc.Tensor(rng.normals((5, 9)) * 0.4, requires_grad=True)
    b1 = nc.Tensor(rng.normals(9) * 0.1, requires_grad=True)
    w2 = nc.Tensor(rng.normals((9, 9)) * 0.4, requires_grad=True)
    wg = nc.Tensor(rng.normals((9, 9)) * 0.4, requires_grad=True)
    w3 = nc.Tensor(rng.normals((9, 1)) * 0.4, requires_grad=True)

    def net(x):
        h = nc.relu(x @ w1 + b1)
        gate = nc.sigmoid(h @ wg)
        mixed = gate * (h @ w2) + (1.0 - gate) * h
        return (mixed @ w3).sum()

    x0 = nc.Tensor(rng.normals((3, 5)))
    assert finite_diff_check(net, x0) < 1e-4
    # and with respect to a weight, holding the input fixed
    x_fixed = nc.Tensor(rng.normals((3, 5)))

    def by_weight(w):
        h = nc.relu(x_fixed @ w + b1)
        gate = nc.sigmoid(h @ wg)
        mixed = gate * (h @ w2) + (1.0 - gate) * h
        return (mixed @ w3).sum()

    assert finite_diff_check(by_weight, w1) < 1e-4


def test_backward_stores_grad_on_leaves_only():
    w = nc.Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    x = nc.Tensor([[2.0, 1.0]])
    hidden = nc.relu(x @ w)
    loss = (hidden * hidden).sum()
    loss.backward()
    assert np.array_equal(w.grad, [[10.0, 0.0], [5.0, 0.0]])
    assert hidden.grad is None and loss.grad is None and x.grad is None


def test_backward_never_visits_constants():
    # a constant that (against the rules) carries a backward and a parent
    # would pass a gradient on if the traversal reached it
    leaf = nc.Tensor([1.0, 2.0], requires_grad=True)
    hidden_leaf = nc.Tensor([5.0, 5.0], requires_grad=True)
    calls = []
    const = nc.Tensor([3.0, 4.0])
    const._parents = (hidden_leaf,)
    const._backward = lambda g: calls.append(g) or (g,)
    (leaf * const).sum().backward()
    assert np.array_equal(leaf.grad, [3.0, 4.0])
    assert calls == [] and hidden_leaf.grad is None and const.grad is None


@pytest.mark.parametrize("index", [(slice(None), slice(1, 3)), (1,), (Ellipsis, None, 0),
                                   (np.array([0, 2, 0]),), (slice(None), np.array([[1, 1], [0, 3]]))])
def test_getitem_backward_matches_accumulation(index):
    # basic indices assign the gradient, index arrays accumulate repeats
    a = nc.Tensor(nc.Rng(12).normals((3, 4)), requires_grad=True)
    g = nc.Rng(13).normals(a.data[index].shape)
    (a[index] * nc.Tensor(g)).sum().backward()
    want = np.zeros((3, 4))
    np.add.at(want, index, g)
    assert np.array_equal(a.grad, want)


def test_no_grad_suppresses_tape():
    x = nc.Tensor([1.0], requires_grad=True)
    with nc.no_grad():
        y = (x * x).sum()
    assert y._backward is None and not y.requires_grad


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------


def test_finite_diff_polynomial_is_nearly_exact():
    err = finite_diff_check(lambda x: (x * x).sum(), nc.Tensor([1.0, 2.0]))
    assert err < 1e-8


def test_finite_diff_constant_function_zero_error():
    err = finite_diff_check(lambda x: (x * 0.0).sum(), nc.Tensor([1.0, 2.0, 3.0]))
    assert err == 0.0


def test_finite_diff_rejects_vector_valued_f():
    with pytest.raises(ContractError):
        finite_diff_check(lambda x: x * 2.0, nc.Tensor([1.0, 2.0]))


# ---------------------------------------------------------------------------
# primitive gradients against finite differences
# ---------------------------------------------------------------------------


def _fd_case(fn, shape, seed):
    rng = nc.Rng(seed)
    x0 = nc.Tensor(rng.normals(shape))
    return finite_diff_check(fn, x0)


def test_gradients_of_each_primitive():
    checks = {
        "add_bcast": (lambda x: (x + nc.Tensor(np.arange(3.0))).sum(), (2, 3)),
        "sub": (lambda x: (4.0 - x * 2.0).sum(), (3,)),
        "div": (lambda x: (x / (nc.sigmoid(x) + 1.0)).sum(), (4,)),
        "pow": (lambda x: ((x * x + 1.0) ** 1.5).sum(), (3,)),
        "exp_log": (lambda x: nc.log(nc.exp(x).sum() + 1.0), (4,)),
        "sqrt": (lambda x: nc.sqrt(x * x + 2.0).sum(), (3,)),
        "maximum": (lambda x: nc.maximum(x, 0.25).sum(), (5,)),
        "softplus": (lambda x: nc.softplus(x * 3.0).sum(), (4,)),
        "mean_axis": (lambda x: (nc.mean(x, axis=0) * nc.Tensor([1.0, -2.0])).sum(), (3, 2)),
        "sum_axis": (lambda x: (nc.sum_(x, axis=1) * nc.Tensor([1.0, -2.0])).sum(), (2, 3)),
        "reshape_transpose": (
            lambda x: (nc.transpose(nc.reshape(x, (3, 2)), (1, 0)) * nc.Tensor(np.ones((2, 3)))).sum(),
            (6,),
        ),
        "concat": (lambda x: (nc.concat([x, x * 2.0], axis=0) ** 2.0).sum(), (3,)),
        "getitem": (lambda x: (x[1:] * x[:-1]).sum(), (4,)),
        "softmax_grad": (lambda x: (nc.softmax(x) * nc.Tensor([0.3, -1.0, 2.0])).sum(), (3,)),
        "log_softmax_grad": (lambda x: (nc.log_softmax(x) * nc.Tensor([1.0, 2.0, 0.5])).sum(), (3,)),
        "lse_grad": (lambda x: nc.log_sum_exp(x, axis=-1).sum(), (2, 4)),
        "layer_norm_grad": (
            lambda x: (nc.layer_norm(x) * nc.Tensor(np.arange(8.0).reshape(2, 4))).sum(),
            (2, 4),
        ),
    }
    for seed, (name, (fn, shape)) in enumerate(checks.items()):
        err = _fd_case(fn, shape, 100 + seed)
        assert err < 1e-4, f"{name}: fd error {err}"


def test_maximum_tie_routes_to_first_argument():
    a = nc.Tensor([1.0], requires_grad=True)
    b = nc.Tensor([1.0], requires_grad=True)
    nc.maximum(a, b).sum().backward()
    assert np.allclose(a.grad, [1.0])
    assert b.grad is None or np.allclose(b.grad, [0.0])


# ---------------------------------------------------------------------------
# fused encoder ops
# ---------------------------------------------------------------------------


def test_fused_ops_match_unfused_compositions():
    rng = nc.Rng(321)
    x = nc.Tensor(rng.normals((5, 3)))
    w = nc.Tensor(rng.normals((3, 4)))
    b = nc.Tensor(rng.normals(4))
    plain = nc.matmul(x, w) + b
    np.testing.assert_array_equal(nc.affine(x, w, b).data, plain.data)
    np.testing.assert_array_equal(nc.affine(x, w, b, act="relu").data,
                                  nc.relu(plain).data)

    t = nc.Tensor(rng.normals((2, 5, 6)))
    np.testing.assert_array_equal(nc.merge_heads(nc.split_heads(t, 3)).data, t.data)
    assert nc.split_heads(t, 3).shape == (2, 3, 5, 2)

    q, k, v = (rng.normals((2, 4, 3)) for _ in range(3))
    att = nc.attention(nc.Tensor(q), nc.Tensor(k), nc.Tensor(v), 0.5)
    soft = nc.softmax(nc.Tensor((q @ np.swapaxes(k, -1, -2)) * 0.5))
    np.testing.assert_allclose(att.data, soft.data @ v, rtol=1e-13)

    a = nc.Tensor(rng.normals((3, 4)))
    r = nc.Tensor(rng.normals((3, 4)))
    np.testing.assert_array_equal(nc.layer_norm(a, residual=r).data,
                                  nc.layer_norm(a + r).data)


def test_stack_pads_and_routes_gradients():
    a = nc.Tensor(nc.Rng(1).normals((2, 3)), requires_grad=True)
    b = nc.Tensor(nc.Rng(2).normals((4, 3)), requires_grad=True)
    out = nc.stack([a, b], (4, 3))
    assert out.shape == (2, 4, 3)
    np.testing.assert_array_equal(out.data[0, :2], a.data)
    assert not out.data[0, 2:].any()
    np.testing.assert_array_equal(out.data[1], b.data)
    mix = nc.Tensor(nc.Rng(3).normals((2, 4, 3)))
    (out * mix).sum().backward()
    np.testing.assert_array_equal(a.grad, mix.data[0, :2])
    np.testing.assert_array_equal(b.grad, mix.data[1])
    same = nc.stack([b, b * 2.0])
    np.testing.assert_array_equal(same.data, np.stack([b.data, 2.0 * b.data]))


def test_affine_task_stack_matches_per_task_layers():
    rng = nc.Rng(5)
    x = nc.Tensor(rng.normals((3, 2, 4, 5)))
    ws = [nc.Tensor(rng.normals((5, 6))) for _ in range(3)]
    bs = [nc.Tensor(rng.normals(6)) for _ in range(3)]
    got = nc.affine(x, nc.stack(ws), nc.stack(bs), act="relu").data
    want = np.stack([nc.affine(nc.Tensor(x.data[t]), ws[t], bs[t], act="relu").data
                     for t in range(3)])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    no_bias = nc.affine(x, nc.stack(ws)).data
    np.testing.assert_allclose(no_bias[1], x.data[1] @ ws[1].data, rtol=1e-14)

    w = nc.Tensor(rng.normals((3, 5, 6)))
    b = nc.Tensor(rng.normals((3, 6)))
    mix = nc.Tensor(rng.normals((3, 2, 4, 6)))
    assert finite_diff_check(lambda v: (nc.affine(v, w, b) * mix).sum(), x) < 1e-6
    assert finite_diff_check(lambda v: (nc.affine(x, v, b) * mix).sum(), w) < 1e-6
    assert finite_diff_check(lambda v: (nc.affine(x, w, v) * mix).sum(), b) < 1e-6


def test_fused_ops_reject_bad_shapes():
    with pytest.raises(ContractError):
        nc.split_heads(nc.Tensor(np.ones((2, 5))), 3)   # 5 not divisible
    with pytest.raises(ContractError):
        nc.merge_heads(nc.Tensor(np.ones((2, 5))))
    with pytest.raises(ContractError):
        nc.attention(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((3, 3))),
                     nc.Tensor(np.ones((2, 3))), 1.0)
    with pytest.raises(ContractError):
        nc.affine(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((3, 2))),
                  nc.Tensor(np.zeros(2)), act="gelu")


def test_fused_ops_gradients_match_fd():
    rng = nc.Rng(654)
    w = nc.Tensor(rng.normals((3, 4)) * 0.5, requires_grad=True)
    b = nc.Tensor(rng.normals(4) * 0.5, requires_grad=True)
    x_fixed = nc.Tensor(rng.normals((5, 3)))
    mix = nc.Tensor(rng.normals((5, 4)))
    qf, kf, vf = (nc.Tensor(rng.normals((2, 3, 2))) for _ in range(3))
    att_mix = nc.Tensor(rng.normals((2, 3, 2)))
    resid = nc.Tensor(rng.normals((3, 4)))
    ln_mix = nc.Tensor(rng.normals((3, 4)))
    # a 2-D matrix against a batch of them, as aggregate_windows multiplies
    mat = nc.Tensor(rng.normals((4, 3)))
    batch = nc.Tensor(rng.normals((2, 3, 5)))
    mm_mix = nc.Tensor(rng.normals((2, 4, 5)))

    cases = {
        "affine_x": (lambda x: (nc.affine(x, w, b) * mix).sum(),
                     nc.Tensor(rng.normals((5, 3)))),
        "affine_w": (lambda wv: (nc.affine(x_fixed, wv, b) * mix).sum(),
                     nc.Tensor(rng.normals((3, 4)) * 0.5)),
        "affine_relu_b": (lambda bv: (nc.affine(x_fixed, w, bv, act="relu") * mix).sum(),
                          nc.Tensor(rng.normals(4) * 0.5)),
        "matmul_matrix": (lambda a: (nc.matmul(a, batch) * mm_mix).sum(),
                          nc.Tensor(rng.normals((4, 3)))),
        "matmul_batch": (lambda b: (nc.matmul(mat, b) * mm_mix).sum(),
                         nc.Tensor(rng.normals((2, 3, 5)))),
        "split_merge": (lambda t: (nc.merge_heads(nc.split_heads(t, 2)) ** 2.0).sum(),
                        nc.Tensor(rng.normals((2, 5, 6)))),
        "attention_q": (lambda q: (nc.attention(q, kf, vf, 0.7) * att_mix).sum(),
                        nc.Tensor(rng.normals((2, 3, 2)))),
        "attention_k": (lambda k: (nc.attention(qf, k, vf, 0.7) * att_mix).sum(),
                        nc.Tensor(rng.normals((2, 3, 2)))),
        "attention_v": (lambda v: (nc.attention(qf, kf, v, 0.7) * att_mix).sum(),
                        nc.Tensor(rng.normals((2, 3, 2)))),
        "ln_residual_a": (lambda a: (nc.layer_norm(a, residual=resid) * ln_mix).sum(),
                          nc.Tensor(rng.normals((3, 4)))),
        "ln_residual_r": (lambda r: (nc.layer_norm(resid, residual=r) * ln_mix).sum(),
                          nc.Tensor(rng.normals((3, 4)))),
    }
    for name, (fn, x0) in cases.items():
        err = finite_diff_check(fn, x0)
        assert err < 1e-4, f"{name}: fd error {err}"


def test_layer_norm_residual_routes_same_gradient_to_both_parents():
    rng = nc.Rng(77)
    a = nc.Tensor(rng.normals((2, 5)), requires_grad=True)
    r = nc.Tensor(rng.normals((2, 5)), requires_grad=True)
    (nc.layer_norm(a, residual=r) * nc.Tensor(rng.normals((2, 5)))).sum().backward()
    np.testing.assert_array_equal(a.grad, r.grad)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# lr, beta1, beta2, eps as TrainConfig's defaults set them
ADAM = (1e-3, 0.9, 0.999, 1e-8)


def _step_with(opt, grads: dict):
    """One optimizer step with the given gradients written into each
    parameter's arena view, the way ``Tensor.backward`` leaves them."""
    opt.zero_grad()
    for p, g in grads.items():
        p.grad += g
    opt.step()


def test_adam_first_step_unit_gradient():
    p = nc.Tensor(np.array([0.0]), requires_grad=True)
    _step_with(nc.Adam({"p": p}, *ADAM), {p: np.array([1.0])})
    # bias correction makes the first step lr * 1/(1 + eps)
    assert p.data[0] == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-15)
    assert p.data[0] == pytest.approx(-0.000999999995, abs=1e-10)


def test_adam_zero_gradient_is_identity():
    p = nc.Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = nc.Adam({"p": p}, *ADAM)
    _step_with(opt, {p: np.zeros(2)})
    assert np.array_equal(p.data, [1.5, -2.0])


def test_adam_two_steps_match_scripted_trace():
    g = 0.3
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    # reference trace in plain floats
    theta, m, v = 0.7, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

    p = nc.Tensor(np.array([0.7]), requires_grad=True)
    opt = nc.Adam({"p": p}, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for _ in range(2):
        _step_with(opt, {p: np.array([g])})
    assert p.data[0] == pytest.approx(theta, abs=1e-15)
    assert opt.t == 2


def test_adam_missing_grad_treated_as_zero():
    # a parameter the backward pass never reaches keeps its zeroed view
    p = nc.Tensor(np.array([1.0]), requires_grad=True)
    q = nc.Tensor(np.array([2.0]), requires_grad=True)
    opt = nc.Adam({"p": p, "q": q}, *ADAM)
    opt.zero_grad()
    (q * 3.0).sum().backward()
    opt.step()
    assert np.array_equal(p.data, [1.0]) and np.array_equal(p.grad, [0.0])
    assert q.data[0] < 2.0


def test_adam_shape_mismatch_rejected():
    p = nc.Tensor(np.zeros(3), requires_grad=True)
    opt = nc.Adam({"p": p}, *ADAM)
    opt.zero_grad()
    p.grad = np.zeros(2)
    with pytest.raises(ContractError, match="gradient of 'p' is not its view"):
        opt.step()


def test_adam_gradient_outside_the_arena_rejected():
    # a gradient array of the right shape that is not the arena view: before
    # the first zero_grad, or assigned by hand afterwards
    p = nc.Tensor(np.zeros(3), requires_grad=True)
    opt = nc.Adam({"p": p}, *ADAM)
    (p * 2.0).sum().backward()            # no zero_grad: backward stores a copy
    with pytest.raises(ContractError, match="gradient of 'p' is not its view"):
        opt.step()
    opt.zero_grad()
    p.grad = np.ones(3)
    with pytest.raises(ContractError, match="gradient of 'p' is not its view"):
        opt.step()
    assert np.array_equal(p.data, np.zeros(3)) and opt.t == 0


def test_adam_backward_accumulates_in_the_arena():
    # zero_grad points every .grad at its view of the arena; backward adds
    # into it in place, across calls, and step reads it there
    p = nc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = nc.Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
    opt = nc.Adam({"p": p, "q": q}, *ADAM)
    opt._grad[:] = 7.0
    opt.zero_grad()
    assert np.array_equal(opt._grad, np.zeros(4))
    views = (p.grad, q.grad)
    (p * np.array([1.0, -1.0])).sum().backward()
    (p * 2.0 + nc.reshape(q, (2,))).sum().backward()
    assert p.grad is views[0] and q.grad is views[1]
    assert np.array_equal(opt._grad, [3.0, 1.0, 1.0, 1.0])
    opt.step()
    assert opt.t == 1


def test_adam_rebound_parameter_rejected():
    p = nc.Tensor(np.zeros(3), requires_grad=True)
    opt = nc.Adam({"p": p}, *ADAM)
    opt.zero_grad()
    p.data = np.ones(3)
    with pytest.raises(ContractError, match="'p' was rebound"):
        opt.step()


def test_adam_duplicate_tensor_rejected():
    p = nc.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError, match="same tensor"):
        nc.Adam({"a": p, "b": p}, *ADAM)


def test_adam_parameters_become_views_of_one_arena():
    p = nc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = nc.Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
    opt = nc.Adam({"p": p, "q": q}, *ADAM)
    assert np.array_equal(opt.flat, [1.0, 2.0, 3.0, 4.0])
    assert q.data.shape == (2, 1)
    # in-place edits of a parameter are edits of the arena
    q.data[1, 0] = 5.0
    assert opt.flat[3] == 5.0


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix_oracle(z: int) -> int:
    # SplitMix64 finalizer in plain Python integers, kept independent of the
    # vectorized implementation under test.
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def _raw_oracle(seed: int, n: int):
    return [_mix_oracle((seed + i * GOLDEN) & MASK) for i in range(1, n + 1)]


def test_raw_stream_matches_pure_python_oracle():
    seed = 987654321
    got = nc.Rng(seed).raw(8).tolist()
    assert got == _raw_oracle(seed, 8)


def test_raw_stream_is_contiguous_across_calls():
    a = nc.Rng(5)
    chunks = np.concatenate([a.raw(3), a.raw(2), a.raw(4)])
    assert np.array_equal(chunks, nc.Rng(5).raw(9))


def test_uniforms_in_half_open_unit_interval():
    u = nc.Rng(99).uniforms(10000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_normals_reproduce_documented_box_muller():
    seed = 2024
    raw = _raw_oracle(seed, 6)
    u = [((r >> 11) + 1) * 2.0**-53 for r in raw]
    expect = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(u1))
        expect.append(r * math.cos(2.0 * math.pi * u2))
        expect.append(r * math.sin(2.0 * math.pi * u2))
    got = nc.Rng(seed).normals(5)  # odd count discards the final sine draw
    assert np.allclose(got, expect[:5], atol=0, rtol=0)


def test_identical_seeds_bit_identical_streams():
    a, b = nc.Rng(31337), nc.Rng(31337)
    assert np.array_equal(a.uniforms(64), b.uniforms(64))
    assert np.array_equal(a.normals((3, 4)), b.normals((3, 4)))
    assert np.array_equal(integers(a, 10, 20), integers(b, 10, 20))


def test_spawn_gives_distinct_deterministic_children():
    parent = nc.Rng(7)
    c0, c1 = parent.spawn(0), parent.spawn(1)
    assert c0.seed != c1.seed != parent.seed
    assert c0.seed == nc.Rng(7).spawn(0).seed
    assert not np.array_equal(c0.uniforms(16), c1.uniforms(16))


@pytest.mark.parametrize("seed", [0, 1, 7, 987654321, 2**63, 2**64 - 2, 2**64 - 1])
def test_spawn_matches_mix64_of_the_documented_child_seed(seed):
    # spawn runs SplitMix64 on Python ints; the child seed must stay
    # mix64(seed + (key + 1) * GOLDEN) as the numpy finalizer computes it
    for key in (0, 1, 2, 5, 31, 1000, 10_000, 2**32):
        want = int(nc._mix64((seed + (key + 1) * GOLDEN) & MASK)[0])
        assert nc.Rng(seed).spawn(key).seed == want, (seed, key)


def test_categorical_respects_support():
    r = nc.Rng(3)
    draws = nc.categorical_from_uniforms(np.array([0.0, 1.0, 0.0]), r.uniforms(200))
    assert np.all(draws == 1)
    mixed = nc.categorical_from_uniforms(np.array([0.5, 0.5]), r.uniforms(2000))
    assert set(np.unique(mixed)) <= {0, 1}
    assert 800 < (mixed == 0).sum() < 1200


def test_permutation_is_a_permutation():
    perm = nc.Rng(8).permutation(40)
    assert sorted(perm.tolist()) == list(range(40))


def test_integers_requires_positive_bound():
    with pytest.raises(ContractError):
        integers(nc.Rng(1), 0)


# ---------------------------------------------------------------------------
# Module / Linear
# ---------------------------------------------------------------------------


class _Toy(nc.Module):
    def __init__(self, rng):
        self.first = nc.Linear(3, 4, rng)
        self.blocks = [nc.Linear(4, 4, rng), nc.Linear(4, 4, rng)]
        self.heads = {"out": nc.Linear(4, 2, rng)}
        self.fixed = nc.Tensor(np.ones(3))  # no grad, must not be collected


def test_module_parameter_paths():
    toy = _Toy(nc.Rng(2))
    names = list(toy.parameters())
    assert names == [
        "first.w", "first.b",
        "blocks.0.w", "blocks.0.b", "blocks.1.w", "blocks.1.b",
        "heads.out.w", "heads.out.b",
    ]


def test_module_zero_grad():
    toy = _Toy(nc.Rng(2))
    for p in toy.parameters().values():
        p.grad = np.ones_like(p.data)
    toy.zero_grad()
    assert all(p.grad is None for p in toy.parameters().values())


def test_linear_forward():
    rng = nc.Rng(4)
    lin = nc.Linear(3, 2, rng)
    x = np.array([[1.0, 2.0, 3.0]])
    got = lin(nc.Tensor(x)).data
    assert np.allclose(got, x @ lin.w.data + lin.b.data)


def test_linear_init_is_seed_deterministic():
    w1 = nc.Linear(5, 6, nc.Rng(42)).w.data
    w2 = nc.Linear(5, 6, nc.Rng(42)).w.data
    assert np.array_equal(w1, w2)
    bound = math.sqrt(6.0 / 11.0)
    assert np.all(np.abs(w1) <= bound)
