"""Loss values whose gradients the regimes use. No run needs the values
themselves; the tests check each gradient against its loss by finite
differences and check the losses' identities."""

import numpy as np

from clbench.strategies import EwcState, SiState, _log_softmax


def ewc_penalty(state: EwcState, theta, lam: float) -> float:
    """(lam/2) * sum over anchors of F_i (theta_i - theta*_i)^2."""
    total = 0.0
    for theta_star, fisher in state.anchors:
        if theta_star.size != theta.size:
            raise ValueError("anchor length does not match parameters")
        diff = theta - theta_star
        total += float(np.dot(fisher * diff, diff))
    return 0.5 * lam * total


def si_penalty(state: SiState, theta, lam: float) -> float:
    """lam * sum omega_i (theta_i - theta_ref_i)^2."""
    if state.omega is None or state.theta_ref is None:
        return 0.0
    diff = theta - state.theta_ref
    return float(lam * np.dot(state.omega * diff, diff))


def lwf_kd_loss(teacher_logits, student_logits, tau: float, alpha: float) -> float:
    """alpha * tau^2 * mean KL(softmax(teacher/tau) || softmax(student/tau))."""
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    student_logits = np.asarray(student_logits, dtype=np.float64)
    if teacher_logits.shape != student_logits.shape:
        raise ValueError("teacher/student logits shapes differ")
    if tau <= 0:
        raise ValueError("temperature must be > 0")
    log_p = _log_softmax(teacher_logits / tau)
    log_q = _log_softmax(student_logits / tau)
    kl = (np.exp(log_p) * (log_p - log_q)).sum(axis=1)
    return float(alpha * tau**2 * kl.mean())
