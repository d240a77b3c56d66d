"""The ten training regimes over a shared task-session lifecycle.

Regimes plug into one SGD loop through narrow hooks (extend the batch, add a
logit-space loss term, add a parameter-space penalty gradient, post-process
the gradient), so a regime with its extras disabled runs the exact same float
operations as plain fine-tuning. Training data flows through an
access-audited interface that records which tasks each session touched.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from . import ndcore
from .ndcore import AdamState, ModelSpec
from .scenarios import TaskStream

__all__ = [
    "KINDS",
    "StrategyConfig",
    "TrainConfig",
    "RngBundle",
    "StreamAccess",
    "AccessViolation",
    "SessionOrderError",
    "EwcState",
    "SiState",
    "MemoryBuffer",
    "ewc_penalty",
    "ewc_penalty_gradient",
    "estimate_fisher",
    "si_update",
    "si_consolidate",
    "si_penalty",
    "si_penalty_gradient",
    "lwf_kd_loss",
    "lwf_kd_dlogits",
    "reservoir_insert",
    "gdumb_insert_balanced",
    "agem_project",
    "gem_project",
    "GemResult",
    "make_strategy",
    "train_task",
]

KINDS = (
    "Naive",
    "Cumulative",
    "Joint",
    "EWC",
    "LwF",
    "SI",
    "Replay",
    "GDumb",
    "GEM",
    "AGEM",
)


class SessionOrderError(RuntimeError):
    """Sessions must run strictly sequentially: t = completed + 1."""


class AccessViolation(RuntimeError):
    """A session touched train data outside its declared task set."""


@dataclass(frozen=True)
class StrategyConfig:
    kind: str
    lam: float = 0.0  # EWC / SI penalty weight
    alpha: float = 0.0  # LwF distillation weight
    tau: float = 2.0  # LwF temperature
    memory_size: int = 0  # Replay / GDumb buffer capacity
    per_task_memory: int = 0  # GEM / A-GEM samples kept per task
    fisher_budget: int = 512  # examples sampled for the Fisher diagonal
    xi: float = 0.1  # SI damping
    gamma: float = 0.0  # GEM constraint margin

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; valid: {KINDS}")
        if self.lam < 0 or self.alpha < 0 or self.gamma < 0:
            raise ValueError("penalty weights must be >= 0")
        if self.tau <= 0:
            raise ValueError("distillation temperature must be > 0")
        if self.memory_size < 0 or self.per_task_memory < 0:
            raise ValueError("memory sizes must be >= 0")
        if self.fisher_budget < 1:
            raise ValueError("fisher_budget must be >= 1")
        if self.xi <= 0:
            raise ValueError("si damping xi must be > 0")

    def label(self) -> str:
        """Short human-readable tag, e.g. 'EWC(lam=0.5)'."""
        extras = {
            "EWC": f"lam={self.lam:g}",
            "SI": f"lam={self.lam:g}",
            "LwF": f"alpha={self.alpha:g},tau={self.tau:g}",
            "Replay": f"mem={self.memory_size}",
            "GDumb": f"mem={self.memory_size}",
            "GEM": f"mem={self.per_task_memory}*T",
            "AGEM": f"mem={self.per_task_memory}*T",
        }
        extra = extras.get(self.kind)
        return f"{self.kind}({extra})" if extra else self.kind


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


class RngBundle:
    """Counter-split sub-streams of one master seed.

    Init and shuffle generators are re-derived per use so every regime sees
    the same weight init and the same data order; memory and Fisher streams
    are stateful but never perturb the training-path streams.
    """

    def __init__(self, master_seed: int):
        self.master = int(master_seed)
        self.memory = np.random.default_rng(np.random.SeedSequence([self.master, 2]))
        self.fisher = np.random.default_rng(np.random.SeedSequence([self.master, 3]))

    def init_rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.master, 0]))

    def shuffle_rng(self, task: int, epoch: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.master, 1, task, epoch]))


class StreamAccess:
    """Audited view of per-task training data.

    Strategies must pull train splits through `train`; every access is logged
    against the active session so the harness can verify that session t used
    only its allowed tasks.
    """

    def __init__(self, train_sets: list[tuple[np.ndarray, np.ndarray]]):
        self._sets = list(train_sets)
        self.session: int | None = None
        self.accessed: dict[int, set[int]] = {}

    @classmethod
    def from_stream(cls, stream: TaskStream) -> "StreamAccess":
        return cls([(task.train_x, task.train_y) for task in stream.tasks])

    @property
    def n_tasks(self) -> int:
        return len(self._sets)

    def begin_session(self, t: int) -> None:
        self.session = t
        self.accessed.setdefault(t, set())

    def train(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= k <= self.n_tasks:
            raise ValueError(f"task index {k} out of range 1..{self.n_tasks}")
        if self.session is not None:
            self.accessed[self.session].add(k)
        return self._sets[k - 1]

    def accessed_in(self, t: int) -> set[int]:
        return set(self.accessed.get(t, set()))


# ---------------------------------------------------------------------------
# Regularizer state and operations


@dataclass
class EwcState:
    """One (theta*, Fisher diagonal) anchor per completed task."""

    anchors: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def add(self, theta_star, fisher) -> None:
        fisher = np.asarray(fisher, dtype=np.float64)
        if (fisher < 0).any():
            raise ValueError("Fisher diagonal must be elementwise >= 0")
        self.anchors.append((np.array(theta_star, dtype=np.float64), fisher.copy()))


def ewc_penalty(state: EwcState, theta, lam: float) -> float:
    """(lam/2) * sum over anchors of F_i (theta_i - theta*_i)^2."""
    total = 0.0
    for theta_star, fisher in state.anchors:
        if theta_star.size != theta.size:
            raise ValueError("anchor length does not match parameters")
        diff = theta - theta_star
        total += float(np.dot(fisher * diff, diff))
    return 0.5 * lam * total


def ewc_penalty_gradient(state: EwcState, theta, lam: float) -> np.ndarray:
    grad = np.zeros_like(theta)
    for theta_star, fisher in state.anchors:
        if theta_star.size != theta.size:
            raise ValueError("anchor length does not match parameters")
        grad += fisher * (theta - theta_star)
    return lam * grad


def estimate_fisher(
    params: np.ndarray,
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    budget: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical Fisher diagonal: mean squared per-example CE gradient.

    Samples `budget` examples without replacement (all examples when the task
    is smaller than the budget).
    """
    if budget < 1:
        raise ValueError("fisher budget must be >= 1")
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot estimate Fisher on empty data")
    idx = np.arange(n) if budget >= n else np.sort(rng.choice(n, size=budget, replace=False))
    # each example is a one-row batch of a stack, so it runs the per-example
    # matmuls bit for bit; a chunk holds at most 2 MiB of gradients
    x, y = x[idx, None, :], y[idx, None]
    step = max(1, (2 << 20) // (8 * spec.n_params))
    total = np.zeros(spec.n_params)
    for start in range(0, idx.size, step):
        blk = ndcore.backward(params, spec, x[start : start + step], y[start : start + step])
        blk *= blk
        # an axis-0 reduce over rows with two or more entries adds rows in
        # order, so the fold equals the sequential per-example sum
        blk[0] += total
        total = np.add.reduce(blk, axis=0)
        del blk  # with two blocks alive, each chunk's allocation page-faulted
    return total / idx.size


@dataclass
class SiState:
    """Path-integral importance accumulator.

    w tracks -g * dtheta during a task; consolidation folds max(0, w) damped
    by the squared task displacement into omega and re-anchors theta_ref.
    """

    xi: float = 0.1
    w: np.ndarray | None = None
    omega: np.ndarray | None = None
    theta_start: np.ndarray | None = None
    theta_ref: np.ndarray | None = None

    def begin_task(self, theta) -> None:
        self.w = np.zeros_like(theta)
        self.theta_start = theta.copy()
        if self.theta_ref is None:
            self.theta_ref = theta.copy()


def si_update(state: SiState, grad, theta_before, theta_after) -> None:
    if state.w is None:
        state.w = np.zeros_like(grad)
    if not grad.size == theta_before.size == theta_after.size == state.w.size:
        raise ValueError("si_update vectors must be congruent")
    state.w += -grad * (theta_after - theta_before)


def si_consolidate(state: SiState, theta_end) -> None:
    if state.theta_start is None:
        state.theta_start = theta_end.copy()
    w = state.w if state.w is not None else np.zeros_like(theta_end)
    displacement = theta_end - state.theta_start
    increment = np.maximum(w, 0.0) / (displacement**2 + state.xi)
    if state.omega is None:
        state.omega = np.zeros_like(theta_end)
    state.omega += increment
    state.theta_ref = theta_end.copy()
    state.w = None
    state.theta_start = None


def si_penalty(state: SiState, theta, lam: float) -> float:
    """lam * sum omega_i (theta_i - theta_ref_i)^2."""
    if state.omega is None or state.theta_ref is None:
        return 0.0
    diff = theta - state.theta_ref
    return float(lam * np.dot(state.omega * diff, diff))


def si_penalty_gradient(state: SiState, theta, lam: float) -> np.ndarray | None:
    if state.omega is None or state.theta_ref is None:
        return None
    return 2.0 * lam * state.omega * (theta - state.theta_ref)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


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


def lwf_kd_dlogits(teacher_logits, student_logits, tau: float, alpha: float) -> np.ndarray:
    """Gradient of the batch-mean distillation loss w.r.t. student logits."""
    p = np.exp(_log_softmax(np.asarray(teacher_logits, dtype=np.float64) / tau))
    q = np.exp(_log_softmax(np.asarray(student_logits, dtype=np.float64) / tau))
    return alpha * tau * (q - p) / p.shape[0]


# ---------------------------------------------------------------------------
# Memory buffers


class MemoryBuffer:
    """Fixed-capacity sample store over preallocated arrays.

    `features`, `labels` and `origins` are the filled prefix; the feature
    matrix is sized on the first insert. `slots` maps each class to its
    occupied slots in ascending order, kept up to date on every write.
    """

    def __init__(self, capacity: int, policy: str):
        self.capacity = capacity
        self.policy = policy  # "reservoir" | "class-balanced-greedy"
        self.seen = 0
        self.slots: dict[int, list[int]] = {}
        self._size = 0
        self._features = np.empty((0, 0))
        self._labels = np.empty(capacity, dtype=np.int64)
        self._origins = np.empty(capacity, dtype=np.int64)

    def __len__(self) -> int:
        return self._size

    @property
    def features(self) -> np.ndarray:
        return self._features[: self._size]

    @property
    def labels(self) -> np.ndarray:
        return self._labels[: self._size]

    @property
    def origins(self) -> np.ndarray:
        return self._origins[: self._size]

    def class_counts(self) -> dict:
        """Samples per class, keyed in order of each class's first slot."""
        return {c: len(s) for c, s in sorted(self.slots.items(), key=lambda item: item[1][0])}

    def write(self, slot: int, feature, label: int, origin) -> None:
        """Store a sample in an occupied slot or in the next free one."""
        if slot == self._size:
            if slot == 0:
                self._features = np.empty((self.capacity, *np.shape(feature)))
            self._size += 1
        else:
            evicted = int(self._labels[slot])
            self.slots[evicted].remove(slot)
            if not self.slots[evicted]:
                del self.slots[evicted]
        self._features[slot] = feature
        self._labels[slot] = label
        self._origins[slot] = origin
        bisect.insort(self.slots.setdefault(label, []), slot)


def reservoir_insert(buffer: MemoryBuffer, feature, label, origin, rng) -> None:
    """Algorithm-R insert: after n >= capacity arrivals every sample has
    retention probability capacity/n."""
    if buffer.policy != "reservoir":
        raise ValueError("reservoir_insert needs a reservoir buffer")
    buffer.seen += 1
    if buffer.capacity == 0:
        return
    if len(buffer) < buffer.capacity:
        buffer.write(len(buffer), feature, int(label), origin)
        return
    slot = int(rng.integers(0, buffer.seen))
    if slot < buffer.capacity:
        buffer.write(slot, feature, int(label), origin)


def gdumb_insert_balanced(buffer: MemoryBuffer, feature, label, origin, rng) -> None:
    """Greedy class-balancing insert: a full buffer accepts a sample only if
    its class is under-represented, evicting from the currently largest
    class."""
    if buffer.policy != "class-balanced-greedy":
        raise ValueError("gdumb_insert_balanced needs a class-balanced-greedy buffer")
    buffer.seen += 1
    if buffer.capacity == 0:
        return
    label = int(label)
    if len(buffer) < buffer.capacity:
        buffer.write(len(buffer), feature, label, origin)
        return
    counts = buffer.class_counts()
    largest = max(counts.values())
    if counts.get(label, 0) >= largest:
        return
    victims = [c for c, n in counts.items() if n == largest]
    victim_class = victims[int(rng.integers(0, len(victims)))] if len(victims) > 1 else victims[0]
    slots = buffer.slots[victim_class]
    buffer.write(slots[int(rng.integers(0, len(slots)))], feature, label, origin)


# ---------------------------------------------------------------------------
# Gradient projections


def agem_project(g: np.ndarray, g_ref: np.ndarray) -> np.ndarray:
    """Project g off the half-space violating the averaged reference gradient:
    g - (g.g_ref / g_ref.g_ref) g_ref when g.g_ref < 0, else g unchanged."""
    g = np.asarray(g, dtype=np.float64)
    g_ref = np.asarray(g_ref, dtype=np.float64)
    if g.shape != g_ref.shape:
        raise ValueError("gradient and reference must have equal length")
    dot = float(g @ g_ref)
    if dot >= 0.0:
        return g
    denom = float(g_ref @ g_ref)
    if denom == 0.0:
        # violated constraint with a zero reference cannot happen in exact
        # arithmetic; skip the projection rather than divide by zero
        return g
    return g - (dot / denom) * g_ref


@dataclass(frozen=True)
class GemResult:
    grad: np.ndarray
    projected: bool
    converged: bool
    iterations: int
    fallback: bool


def gem_project(
    g: np.ndarray,
    G: np.ndarray,
    tol: float = 1e-7,
    margin: float = 0.0,
    max_iter: int = 10000,
) -> GemResult:
    """Euclidean projection of g onto {x : <x, g_k> >= margin for all k}.

    Solves the nonnegative dual QP (min 1/2 v'GG'v + v'(Gg - margin)) by
    projected gradient descent with step 1/L, L the inf-norm bound on GG'.
    The dual gradient components are exactly the constraint values of the
    candidate projection, so feasibility is checked directly. On
    non-convergence, falls back to a single projection against the mean
    constraint row.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    g = np.asarray(g, dtype=np.float64)
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    if G.shape[1] != g.size:
        raise ValueError("constraint rows must match gradient length")
    dots = G @ g
    if np.all(dots >= margin):
        return GemResult(g, False, True, 0, False)
    # row scaling leaves the feasible cone unchanged but conditions the dual;
    # margins rescale with their rows to keep the constraints identical
    norms = np.linalg.norm(G, axis=1)
    keep = norms > 0.0
    if not keep.any():
        return GemResult(g, False, False, 0, False)
    Gn = G[keep] / norms[keep, None]
    A = Gn @ Gn.T
    b = Gn @ g - margin / norms[keep]
    L = float(np.abs(A).sum(axis=1).max())
    scale = max(1.0, float(np.abs(b).max()))
    row_norms = norms[keep]
    v = np.zeros(Gn.shape[0])
    converged = False
    iterations = 0
    for iterations in range(max_iter + 1):
        dual_grad = A @ v + b  # = <g + Gn'v, g_k/|g_k|> - margin/|g_k|
        raw_violation = float((dual_grad * row_norms).min())  # = min <x, g_k> - margin
        if raw_violation >= -0.5 * tol and np.abs(v * dual_grad).max() <= tol * scale:
            converged = True  # epsilon-KKT: feasible and complementary
            break
        if iterations == max_iter:
            break
        v = np.maximum(0.0, v - dual_grad / L)
    projected = g + Gn.T @ v
    if converged:
        return GemResult(projected, True, True, iterations, False)
    if float((G @ projected).min()) >= margin - tol:
        # ran out of iterations but the iterate is already feasible; keep it
        return GemResult(projected, True, False, iterations, False)
    fallback = agem_project(g, G.mean(axis=0))
    return GemResult(fallback, True, False, iterations, True)


# ---------------------------------------------------------------------------
# Strategy plugins


class Strategy:
    """Plain fine-tuning on the current task; subclasses add their extras."""

    def __init__(self, config: StrategyConfig, spec: ModelSpec, master_seed: int):
        self.config = config
        self.spec = spec
        self.rngs = RngBundle(master_seed)
        self.completed = 0
        self.diagnostics: dict = {}
        self._cfg: TrainConfig | None = None

    @property
    def kind(self) -> str:
        return self.config.kind

    def allowed_tasks(self, t: int, n_tasks: int) -> set[int]:
        return {t}

    # --- hooks -------------------------------------------------------------

    def initial_params(self, params: np.ndarray, t: int) -> np.ndarray:
        return params

    def session_data(self, access: StreamAccess, t: int):
        return access.train(t)

    def before_session(self, params: np.ndarray, access: StreamAccess, t: int) -> None:
        pass

    def extend_batch(self, bx: np.ndarray, by: np.ndarray):
        return bx, by

    def loss_dlogits(self, logits: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        return ndcore._ce_dlogits(logits, by)

    def penalty_gradient(self, params: np.ndarray) -> np.ndarray | None:
        return None

    def adjust_gradient(self, grad: np.ndarray, params: np.ndarray, t: int) -> np.ndarray:
        return grad

    def after_step(self, grad: np.ndarray, params: np.ndarray) -> None:
        pass

    def after_session(self, params: np.ndarray, access: StreamAccess, t: int) -> None:
        pass

    def shuffle_key(self, t: int) -> int:
        return t

    # --- shared session loop -----------------------------------------------

    def train_session(self, params: np.ndarray, access: StreamAccess, t: int, cfg: TrainConfig) -> np.ndarray:
        # one workspace: the incoming parameters are copied once, then they
        # and one gradient buffer are updated in place through views built
        # once; every row a step adds comes from session data checked here
        self._cfg = cfg
        x, y = self.session_data(access, t)
        x = ndcore._check_batch(self.spec, x)
        y = ndcore._check_labels(y, self.spec.output_dim, x.shape[:-1])
        params = self.initial_params(params, t).copy()
        self.before_session(params, access, t)
        grad = np.empty_like(params)
        views, grad_views = self.spec.layers(params), self.spec.layers(grad)
        n = x.shape[0]
        adam = AdamState.fresh(params.size, cfg.learning_rate)
        try:
            for epoch in range(cfg.epochs):
                order = self.rngs.shuffle_rng(self.shuffle_key(t), epoch).permutation(n)
                xs, ys = x[order], y[order]
                for start in range(0, n, cfg.batch_size):
                    end = start + cfg.batch_size
                    bx, by = self.extend_batch(xs[start:end], ys[start:end])
                    acts: list = []
                    logits = ndcore._forward(views, bx, acts)
                    ndcore._backprop(views, acts, self.loss_dlogits(logits, bx, by), grad_views)
                    extra = self.penalty_gradient(params)
                    if extra is not None:
                        grad += extra
                    step_grad = self.adjust_gradient(grad, params, t)
                    ndcore.adam_step(adam, params, step_grad)
                    self.after_step(step_grad, params)
        except FloatingPointError as err:
            raise FloatingPointError(
                f"{self.kind} session {t}, epoch {epoch + 1}, step {start // cfg.batch_size + 1}: {err}"
            ) from err
        self.after_session(params, access, t)
        return params


class NaiveStrategy(Strategy):
    pass


def _train_union(access: StreamAccess, last: int):
    """Train splits of tasks 1..last, stacked in task order."""
    parts = [access.train(k) for k in range(1, last + 1)]
    return np.vstack([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


class CumulativeStrategy(Strategy):
    """From-scratch retraining on the union of all tasks seen so far."""

    def allowed_tasks(self, t, n_tasks):
        return set(range(1, t + 1))

    def initial_params(self, params, t):
        return ndcore.init_params(self.spec, self.rngs.init_rng())

    def session_data(self, access, t):
        return _train_union(access, t)


class JointStrategy(Strategy):
    """One offline session over every task's training data."""

    def allowed_tasks(self, t, n_tasks):
        return set(range(1, n_tasks + 1))

    def session_data(self, access, t):
        return _train_union(access, access.n_tasks)


class EwcStrategy(Strategy):
    def __init__(self, config, spec, master_seed):
        super().__init__(config, spec, master_seed)
        self.state = EwcState()

    def penalty_gradient(self, params):
        if self.config.lam == 0.0 or not self.state.anchors:
            return None
        return ewc_penalty_gradient(self.state, params, self.config.lam)

    def after_session(self, params, access, t):
        if self.config.lam == 0.0:
            return
        x, y = access.train(t)
        fisher = estimate_fisher(params, self.spec, x, y, self.config.fisher_budget, self.rngs.fisher)
        self.state.add(params, fisher)


class SiStrategy(Strategy):
    def __init__(self, config, spec, master_seed):
        super().__init__(config, spec, master_seed)
        self.state = SiState(xi=config.xi)

    def before_session(self, params, access, t):
        if self.config.lam > 0.0:
            self.state.begin_task(params)
            self._before = params.copy()  # the parameters before each step

    def after_step(self, grad, params):
        if self.config.lam > 0.0:
            si_update(self.state, grad, self._before, params)
            self._before[...] = params

    def penalty_gradient(self, params):
        if self.config.lam == 0.0:
            return None
        return si_penalty_gradient(self.state, params, self.config.lam)

    def after_session(self, params, access, t):
        if self.config.lam > 0.0:
            si_consolidate(self.state, params)


class LwfStrategy(Strategy):
    def __init__(self, config, spec, master_seed):
        super().__init__(config, spec, master_seed)
        self.teacher: list | None = None  # layer views of the frozen pre-task parameters

    def before_session(self, params, access, t):
        # no teacher for the first task: there is nothing to distill yet
        if self.config.alpha > 0.0 and t >= 2:
            self.teacher = self.spec.layers(params.copy())

    def loss_dlogits(self, logits, bx, by):
        d = ndcore._ce_dlogits(logits, by)
        if self.teacher is not None and self.config.alpha > 0.0:
            teacher_logits = ndcore._forward(self.teacher, bx)
            d += lwf_kd_dlogits(teacher_logits, logits, self.config.tau, self.config.alpha)
        return d


class _BufferedStrategy(Strategy):
    policy = "reservoir"

    def __init__(self, config, spec, master_seed):
        super().__init__(config, spec, master_seed)
        self.buffer = MemoryBuffer(capacity=config.memory_size, policy=self.policy)


class ReplayStrategy(_BufferedStrategy):
    """Each step trains on the current batch plus a uniform memory draw."""

    policy = "reservoir"

    def extend_batch(self, bx, by):
        if len(self.buffer) == 0:
            return bx, by
        k = min(self._cfg.batch_size, len(self.buffer))
        idx = self.rngs.memory.choice(len(self.buffer), size=k, replace=False)
        return np.vstack([bx, self.buffer.features[idx]]), np.concatenate([by, self.buffer.labels[idx]])

    def after_session(self, params, access, t):
        if self.buffer.capacity == 0:
            return
        x, y = access.train(t)
        for i in range(x.shape[0]):
            reservoir_insert(self.buffer, x[i], y[i], t, self.rngs.memory)
        self.diagnostics.setdefault("buffer_size", []).append(len(self.buffer))


class GDumbStrategy(_BufferedStrategy):
    """Greedy balanced sampler plus a learner retrained from scratch on the
    buffer each session."""

    policy = "class-balanced-greedy"

    def initial_params(self, params, t):
        return ndcore.init_params(self.spec, self.rngs.init_rng())

    def shuffle_key(self, t):
        # training depends only on buffer contents + seed, not the session id
        return 0

    def session_data(self, access, t):
        x, y = access.train(t)
        for i in range(x.shape[0]):
            gdumb_insert_balanced(self.buffer, x[i], y[i], t, self.rngs.memory)
        self.diagnostics.setdefault("buffer_size", []).append(len(self.buffer))
        if len(self.buffer) == 0:
            return np.zeros((0, self.spec.input_dim)), np.zeros(0, dtype=np.int64)
        return self.buffer.features, self.buffer.labels


class _EpisodicStrategy(Strategy):
    """Shared per-task ring memory for the gradient-constraint regimes."""

    def __init__(self, config, spec, master_seed):
        super().__init__(config, spec, master_seed)
        self.memories: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def after_session(self, params, access, t):
        if self.config.per_task_memory == 0:
            return
        x, y = access.train(t)
        keep = self.config.per_task_memory
        self.memories[t] = (x[-keep:].copy(), y[-keep:].copy())

    def _memory_tasks(self, t: int) -> list[int]:
        return sorted(k for k in self.memories if k < t)


class GemStrategy(_EpisodicStrategy):
    """Per-step projection keeping the update non-harmful to every past task."""

    def before_session(self, params, access, t):
        # memories are fixed for the session: stack them once per distinct
        # size, with the places of their rows in past-task order
        past = [self.memories[k] for k in self._memory_tasks(t)]
        self._rows = np.empty((len(past), params.size))
        self._groups = []
        for size in dict.fromkeys(len(y) for _, y in past):
            at = [i for i, (_, y) in enumerate(past) if len(y) == size]
            group = [past[i] for i in at]
            self._groups.append((at, np.stack([x for x, _ in group]), np.stack([y for _, y in group])))

    def adjust_gradient(self, grad, params, t):
        if not self._groups:
            return grad
        # each stacked row is bit for bit its own 2-D call; the rows keep
        # past-task order, which the dual's bits depend on
        for at, xs, ys in self._groups:
            self._rows[at] = ndcore.backward(params, self.spec, xs, ys)
        result = gem_project(grad, self._rows, margin=self.config.gamma)
        if result.projected:
            self.diagnostics["projections"] = self.diagnostics.get("projections", 0) + 1
        if result.fallback:
            self.diagnostics["fallbacks"] = self.diagnostics.get("fallbacks", 0) + 1
        return result.grad


class AgemStrategy(_EpisodicStrategy):
    """Single-constraint variant: one averaged reference gradient per step."""

    def __init__(self, config, spec, master_seed):
        super().__init__(config, spec, master_seed)
        self._pool = None  # concatenated past-task memories, fixed per session

    def before_session(self, params, access, t):
        past = self._memory_tasks(t)
        if past:
            self._pool = (
                np.vstack([self.memories[k][0] for k in past]),
                np.concatenate([self.memories[k][1] for k in past]),
            )
        else:
            self._pool = None

    def adjust_gradient(self, grad, params, t):
        if self._pool is None:
            return grad
        pool_x, pool_y = self._pool
        k = min(self._cfg.batch_size, pool_x.shape[0])
        idx = self.rngs.memory.choice(pool_x.shape[0], size=k, replace=False)
        g_ref = ndcore.backward(params, self.spec, pool_x[idx], pool_y[idx])
        if float(grad @ g_ref) >= 0.0:
            return grad
        self.diagnostics["projections"] = self.diagnostics.get("projections", 0) + 1
        return agem_project(grad, g_ref)


_STRATEGIES = {
    "Naive": NaiveStrategy,
    "Cumulative": CumulativeStrategy,
    "Joint": JointStrategy,
    "EWC": EwcStrategy,
    "LwF": LwfStrategy,
    "SI": SiStrategy,
    "Replay": ReplayStrategy,
    "GDumb": GDumbStrategy,
    "GEM": GemStrategy,
    "AGEM": AgemStrategy,
}


def make_strategy(config: StrategyConfig, spec: ModelSpec, master_seed: int) -> Strategy:
    return _STRATEGIES[config.kind](config, spec, master_seed)


def train_task(strategy: Strategy, params: np.ndarray, data, t: int, cfg: TrainConfig) -> np.ndarray:
    """Run training session t from `params` and return the trained parameters.

    Sessions are strictly sequential; the access audit rejects a session that
    pulled train data from tasks outside the strategy's declared set.
    """
    if t != strategy.completed + 1:
        raise SessionOrderError(
            f"session {t} out of order: {strategy.completed} sessions completed"
        )
    access = StreamAccess.from_stream(data) if isinstance(data, TaskStream) else data
    access.begin_session(t)
    params = strategy.train_session(params, access, t, cfg)
    touched = access.accessed_in(t)
    allowed = strategy.allowed_tasks(t, access.n_tasks)
    if not touched <= allowed:
        raise AccessViolation(
            f"{strategy.kind} session {t} accessed tasks {sorted(touched - allowed)} "
            f"outside its allowed set {sorted(allowed)}"
        )
    strategy.completed = t
    return params
