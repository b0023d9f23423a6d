"""What the tests hold the tape to: central-difference gradient checks, one
for a scalar function of one tensor and one for a loss closure over every
parameter of a module, and a reference traversal of the tape."""

import numpy as np

from fremure import numcore as nc
from fremure.errors import ContractError


def finite_diff_check(f, x: nc.Tensor, h: float = 1e-5) -> float:
    """Compare the tape gradient of a scalar function against central differences.

    Returns max over coordinates of |autodiff - central| / (|central| + 1e-8).
    `f` must map a Tensor to a scalar Tensor and be deterministic.
    """
    probe = nc.Tensor(np.array(x.data, copy=True), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ContractError("finite_diff_check expects a scalar-valued function")
    out.backward()
    grad = probe.grad if probe.grad is not None else np.zeros_like(probe.data)
    flat = grad.ravel()
    worst = 0.0
    base = np.array(x.data, copy=True)
    with nc.no_grad():
        for i in range(base.size):
            bumped = base.copy()
            bumped.flat[i] += h
            hi = f(nc.Tensor(bumped)).item()
            bumped.flat[i] -= 2 * h
            lo = f(nc.Tensor(bumped)).item()
            central = (hi - lo) / (2.0 * h)
            err = abs(flat[i] - central) / (abs(central) + 1e-8)
            worst = max(worst, err)
    return worst


def finite_diff_model(model: nc.Module, f, h: float = 1e-5) -> float:
    """Check the tape gradient of ``f()`` (a scalar Tensor closure over the
    model) against central differences, coordinate by coordinate over every
    parameter. ``f`` must be deterministic; fix any sampling inside it.
    Returns the worst relative error, |ad - fd| / (|fd| + 1e-8)."""
    params = model.parameters()
    model.zero_grad()
    out = f()
    if out.data.size != 1:
        raise ContractError("finite_diff_model expects a scalar loss closure")
    out.backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}
    worst = 0.0
    with nc.no_grad():
        for key, p in params.items():
            flat = p.data.ravel()
            gflat = grads[key].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = f().item()
                flat[i] = orig - h
                lo = f().item()
                flat[i] = orig
                central = (hi - lo) / (2.0 * h)
                err = abs(gflat[i] - central) / (abs(central) + 1e-8)
                worst = max(worst, err)
    model.zero_grad()
    return worst


def backward_visiting_everything(root: nc.Tensor):
    """``root.backward()`` as a traversal that visits every node, constants
    included, gives every parent its flow, and stores a gradient on every
    node that requires one. Parameters must get the same bits from it as
    from ``Tensor.backward``, which visits and stores less."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    flow = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        grad = flow.pop(id(node), None)
        if grad is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = grad.copy()
            else:
                node.grad += grad
        if node._backward is None:
            continue
        for parent, pgrad in zip(node._parents, node._backward(grad)):
            if pgrad is not None:
                acc = flow.get(id(parent))
                flow[id(parent)] = pgrad if acc is None else acc + pgrad
