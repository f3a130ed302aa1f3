"""Finite-difference verification of autodiff gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from amphista.tensor import Parameter, backward


@dataclass
class GradCheckReport:
    """Per-parameter comparison of autodiff against central differences."""

    max_rel_err: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    frozen: list[str] = field(default_factory=list)
    zero_grad: list[str] = field(default_factory=list)
    tol: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        lines = [f"grad_check: {'PASS' if self.passed else 'FAIL'} (tol={self.tol:g})"]
        for name, err in sorted(self.max_rel_err.items(), key=lambda kv: -kv[1]):
            mark = "FAIL" if name in self.failures else "ok"
            lines.append(f"  {mark:4s} {name}: max_rel_err={err:.3e}")
        for name in self.frozen:
            lines.append(f"  skip {name}: frozen (requires_grad=False), excluded")
        for name in self.zero_grad:
            lines.append(f"  note {name}: autodiff gradient identically zero")
        return "\n".join(lines)


def grad_check(
    fn,
    params: list[Parameter],
    eps: float = 1e-3,
    tol: float = 1e-4,
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare autodiff gradients of ``fn()`` with central finite differences.

    ``fn`` must be a deterministic closure over ``params`` returning a scalar
    Tensor; determinism is verified by evaluating it twice. Parameters with
    ``requires_grad=False`` are reported as frozen and excluded. For large
    parameters a random subset of ``max_entries_per_param`` entries is probed
    (deterministic given ``rng``); pass None to probe every entry.
    """
    loss_a = fn()
    loss_b = fn()
    if loss_a.data.tobytes() != loss_b.data.tobytes():
        raise RuntimeError("grad_check: fn is non-deterministic (double evaluation mismatch)")

    report = GradCheckReport(tol=tol)
    active = []
    for p in params:
        if p.requires_grad:
            active.append(p)
        else:
            report.frozen.append(p.name or "<unnamed>")

    for p in active:
        p.zero_grad()
    backward(fn())
    ad_grads = {id(p): (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for p in active}

    rng = rng or np.random.default_rng(0)
    for p in active:
        name = p.name or "<unnamed>"
        ad = ad_grads[id(p)].reshape(-1)
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries_per_param is None or n <= max_entries_per_param:
            entries = np.arange(n)
        else:
            entries = rng.choice(n, size=max_entries_per_param, replace=False)
        worst = 0.0
        for i in entries:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn().item()
            flat[i] = orig - eps
            f_minus = fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(ad[i]), abs(fd), 1e-4)
            worst = max(worst, abs(ad[i] - fd) / denom)
        report.max_rel_err[name] = worst
        if not np.any(ad):
            report.zero_grad.append(name)
        if worst > tol:
            report.failures.append(name)

    for p in active:
        p.zero_grad()
    return report
