"""Exact system-environment simulator.

A process is a fixed initial joint state, a list of interval propagators
(one unitary on the joint space per control slot), and the control
operations supplied per run. Control ``j`` acts on the system alone and is
followed by interval ``j``:

    rho_k = tr_env[ U_k A_{k-1} ... U_1 A_0 (rho_se) ]

Interval propagators come either from a two-qubit exchange-plus-dephasing
Hamiltonian, ``H = g (XX + YY)/2 + zeta ZZ/2`` with frequencies given in
kHz, or from explicit unitary matrices (identity, SWAP, or a custom
matrix). ``env_reset`` refreshes the environment in its initial state
after every interval, which makes the process exactly Markovian and is
used as a zero-memory reference. ``meas_channel`` composes a fixed error
channel on the system immediately before readout; tomography treats it as
part of the process.

Shot sampling uses counter-based Philox streams keyed by
(master seed, record index, axis), so any record can be regenerated in
isolation and runs are reproducible under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .qcore import (
    KET0,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULI_SETTINGS,
    PauliBasisSetting,
    QuantumChannel,
    apply_channel,
    check_density_matrix,
    check_unitary,
    ket_dm,
    partial_trace,
    unitary_choi,
)

GATE_NS = 72.0  # one gate-equivalent of wall time

SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

AXES = ("X", "Y", "Z")


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for (master seed, path...)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def khz_to_rad_per_ns(freq_khz: float) -> float:
    return 2.0 * np.pi * freq_khz * 1e-6


def exchange_zz_hamiltonian(exchange_khz: float, zz_khz: float) -> np.ndarray:
    """Two-qubit coupling in angular units of rad/ns."""
    g = khz_to_rad_per_ns(exchange_khz)
    z = khz_to_rad_per_ns(zz_khz)
    return g * (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)) / 2.0 \
        + z * np.kron(PAULI_Z, PAULI_Z) / 2.0


def interval_propagator(hamiltonian: np.ndarray, duration_ns: float) -> np.ndarray:
    return expm(-1j * np.asarray(hamiltonian, dtype=complex) * float(duration_ns))


def env_initial_state(env_dim: int, kind: str) -> np.ndarray:
    if kind == "zero":
        v = np.zeros(env_dim, dtype=complex)
        v[0] = 1.0
        return ket_dm(v)
    if kind == "plus":
        if env_dim != 2:
            raise ValueError("plus environment requires env_dim=2")
        return ket_dm(np.array([1.0, 1.0]) / np.sqrt(2.0))
    raise ValueError(f"unknown environment initialization {kind!r}")


def initial_joint_state(env_dim: int, kind: str) -> np.ndarray:
    """System-environment initial state for a named preset."""
    if kind == "bell":
        if env_dim != 2:
            raise ValueError("bell initialization requires env_dim=2")
        return ket_dm(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
    if kind == "plus_plus":
        if env_dim != 2:
            raise ValueError("plus_plus initialization requires env_dim=2")
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        return ket_dm(np.kron(plus, plus))
    return np.kron(ket_dm(KET0), env_initial_state(env_dim, kind))


# ---------------------------------------------------------------------------
# Control sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlStep:
    """One system-only operation in a sequence.

    kind: "prep" (preparation applied as its physical gate) or "unitary"
    (a gate, or any operation in the span of unitary channels, such as
    the depolarizing channel). ``choi`` is the
    operation's Choi matrix (qcore convention); ``unitary`` is the gate
    itself for gate steps. Neither is validated here: gates are checked
    where they enter the program (``ControlBasis``), or are unitary by
    construction (standard preparations, Paulis, ``u3_matrix``).
    """

    kind: str
    choi: np.ndarray = field(repr=False)
    label: str = ""
    unitary: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("prep", "unitary"):
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class ControlSequence:
    steps: tuple[ControlStep, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.steps)


def prep_step(gate: np.ndarray, label: str) -> ControlStep:
    gate = np.asarray(gate, dtype=complex)
    return ControlStep(kind="prep", choi=unitary_choi(gate), label=label,
                       unitary=gate)


def unitary_step(gate: np.ndarray, label: str = "") -> ControlStep:
    gate = np.asarray(gate, dtype=complex)
    return ControlStep(kind="unitary", choi=unitary_choi(gate), label=label,
                       unitary=gate)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SEModel:
    """Joint model: initial state, one propagator per control slot, flags."""

    sys_dim: int
    env_dim: int
    intervals: tuple[np.ndarray, ...]
    initial_se: np.ndarray
    env_reset: bool = False
    env_init: str = "zero"
    meas_channel: QuantumChannel | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.sys_dim != 2:
            raise ValueError("only qubit systems are supported")
        if self.env_dim not in (1, 2, 4, 8):
            raise ValueError(f"env_dim must be one of 1,2,4,8, got {self.env_dim}")
        d = self.sys_dim * self.env_dim
        for idx, u in enumerate(self.intervals):
            check_unitary(np.asarray(u), tol=1e-9, name=f"interval {idx}")
            if np.asarray(u).shape != (d, d):
                raise ValueError(f"interval {idx} has shape {np.asarray(u).shape}, need {(d, d)}")
        check_density_matrix(self.initial_se, name="initial joint state")
        if self.initial_se.shape != (d, d):
            raise ValueError("initial joint state dimension mismatch")
        if self.meas_channel is not None and self.meas_channel.dim_in != self.sys_dim:
            raise ValueError("meas_channel must act on the system")

    @property
    def steps(self) -> int:
        return len(self.intervals)


def make_model(env_dim: int = 2, env_init: str = "zero", steps: int = 3,
               exchange_khz: float = 50.0, zz_khz: float = 30.0,
               duration_ns: float | list[float] = GATE_NS * 2,
               env_reset: bool = False,
               meas_channel: QuantumChannel | None = None,
               intervals: tuple[np.ndarray, ...] | None = None,
               label: str = "") -> SEModel:
    """Convenience builder for the default coupled-neighbor model family."""
    if intervals is None:
        if env_dim != 2:
            raise ValueError("the built-in Hamiltonian couples to a single neighbor qubit")
        h = exchange_zz_hamiltonian(exchange_khz, zz_khz)
        if np.isscalar(duration_ns):
            durations = [float(duration_ns)] * steps
        else:
            durations = [float(d) for d in duration_ns]
            if len(durations) != steps:
                raise ValueError("need one interval duration per step")
        intervals = tuple(interval_propagator(h, d) for d in durations)
    init = initial_joint_state(env_dim, env_init)
    return SEModel(sys_dim=2, env_dim=env_dim, intervals=intervals,
                   initial_se=init, env_reset=env_reset, env_init=env_init,
                   meas_channel=meas_channel, label=label)


def _apply_system_channel(choi: np.ndarray, rho_se: np.ndarray,
                          sys_dim: int, env_dim: int) -> np.ndarray:
    c4 = choi.reshape(sys_dim, sys_dim, sys_dim, sys_dim)
    r4 = rho_se.reshape(sys_dim, env_dim, sys_dim, env_dim)
    out = np.einsum("satb,setf->aebf", c4, r4)
    return out.reshape(sys_dim * env_dim, sys_dim * env_dim)


def _final_joint_state(model: SEModel, seq: ControlSequence) -> np.ndarray:
    if len(seq) != model.steps:
        raise ValueError(
            f"sequence has {len(seq)} steps but the model has {model.steps} intervals")
    d_env = model.env_dim
    rho = model.initial_se.copy()
    env0 = partial_trace(model.initial_se, 1, (model.sys_dim, d_env)) if d_env > 1 else None
    for step, u in zip(seq.steps, model.intervals):
        if step.unitary is not None:
            g = np.kron(step.unitary, np.eye(d_env))
            rho = g @ rho @ g.conj().T
        else:
            rho = _apply_system_channel(step.choi, rho, model.sys_dim, d_env)
        rho = u @ rho @ u.conj().T
        if model.env_reset and d_env > 1:
            sys = partial_trace(rho, 0, (model.sys_dim, d_env))
            rho = np.kron(sys, env0)
    return rho


def run_sequence(model: SEModel, seq: ControlSequence) -> np.ndarray:
    """Exact reduced system state after the full sequence."""
    rho = _final_joint_state(model, seq)
    out = partial_trace(rho, 0, (model.sys_dim, model.env_dim)) \
        if model.env_dim > 1 else rho
    if model.meas_channel is not None:
        out = apply_channel(model.meas_channel, out)
    # guard, not a projection: the exact simulation must stay physical
    return check_density_matrix(out, name="simulated state")


def two_qubit_probe(model: SEModel, seq: ControlSequence) -> np.ndarray:
    """Joint system-neighbor state; requires a qubit environment."""
    if model.env_dim != 2:
        raise ValueError("two_qubit_probe requires a single-qubit environment")
    if model.env_reset:
        raise ValueError("two_qubit_probe is meaningless with env_reset")
    rho = _final_joint_state(model, seq)
    return check_density_matrix(rho, name="joint probe state")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentRecord:
    """Counts for one sequence measured along X, Y and Z.

    ``shots`` is a positive integer and counts are integers summing to it
    per axis. ``shots=None`` marks an exact-statistics record whose
    "counts" hold the exact outcome probabilities; the tomography and
    bootstrap code treat such records as the infinite-shot limit.
    """

    sequence_id: str
    counts: dict[str, tuple[float, float]]
    shots: int | None
    seed: int

    def __post_init__(self) -> None:
        missing = [ax for ax in AXES if ax not in self.counts]
        if missing:
            raise ValueError(f"record {self.sequence_id} missing axes {missing}")
        for ax in AXES:
            plus, minus = self.counts[ax]
            if plus < 0 or minus < 0:
                raise ValueError(f"negative counts on axis {ax}")
            total = plus + minus
            if self.shots is None:
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(f"exact record probabilities on {ax} sum to {total}")
            else:
                if self.shots <= 0:
                    raise ValueError("shots must be positive")
                if int(plus) != plus or int(minus) != minus or total != self.shots:
                    raise ValueError(
                        f"axis {ax} counts {plus}+{minus} do not sum to shots={self.shots}")

    def expectations(self) -> dict[str, float]:
        out = {}
        for ax in AXES:
            plus, minus = self.counts[ax]
            out[ax] = float(plus - minus) / (self.shots if self.shots else 1.0)
        return out


def outcome_probability(state: np.ndarray, setting: PauliBasisSetting) -> float:
    p = float(np.einsum("ij,ji->", setting.plus, state).real)
    return min(max(p, 0.0), 1.0)


def sample_counts(state: np.ndarray, setting: PauliBasisSetting, shots: int,
                  rng: np.random.Generator) -> tuple[int, int]:
    """Binomial counts (n_plus, n_minus) for one measurement setting."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    p = outcome_probability(state, setting)
    n_plus = int(rng.binomial(shots, p))
    return n_plus, shots - n_plus


def simulate_experiment(model: SEModel, seq: ControlSequence, shots: int | None,
                        master_seed: int, record_index: int = 0) -> ExperimentRecord:
    """Run one sequence and collect (or compute exactly) three-axis counts."""
    state = run_sequence(model, seq)
    counts: dict[str, tuple[float, float]] = {}
    for ax_idx, ax in enumerate(AXES):
        setting = PAULI_SETTINGS[ax]
        if shots is None:
            p = outcome_probability(state, setting)
            counts[ax] = (p, 1.0 - p)
        else:
            rng = rng_stream(master_seed, record_index, ax_idx)
            counts[ax] = sample_counts(state, setting, shots, rng)
    return ExperimentRecord(sequence_id=seq.name or f"seq{record_index}",
                            counts=counts, shots=shots, seed=master_seed)


# two-qubit readout used by the decoupling probe ---------------------------

PAIR_SETTINGS = tuple((a, b) for a in AXES for b in AXES)


def sample_pair_counts(joint: np.ndarray, axes: tuple[str, str], shots: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Multinomial counts over the four +/- outcomes of a joint Pauli pair."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    sa, sb = PAULI_SETTINGS[axes[0]], PAULI_SETTINGS[axes[1]]
    projs = [np.kron(pa, pb) for pa in (sa.plus, sa.minus) for pb in (sb.plus, sb.minus)]
    probs = np.array([max(float(np.einsum("ij,ji->", pr, joint).real), 0.0)
                      for pr in projs])
    probs = probs / probs.sum()
    return rng.multinomial(shots, probs)
