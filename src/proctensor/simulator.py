"""Exact system-environment simulator.

The environment is one neighbour qubit. A process (``SEModel``) is a
fixed initial joint state of the qubit and its neighbour, a list of
interval propagators (one 4x4 unitary on the joint space per control
slot), and two flags. The controls are supplied per run, one gate (a 2x2
unitary) per slot. Gate ``j`` acts on the system alone and is followed by
interval ``j``:

    rho_k = tr_env[ U_k G_{k-1} ... U_1 G_0 (rho_se) ]

A non-gate operation, such as the memory probe's depolarizing barrier, is
never simulated: the reconstructed tensor contracts it as a matrix form.

Interval propagators come either from a two-qubit exchange-plus-dephasing
coupling, ``H = g (XX + YY)/2 + zeta ZZ/2`` with frequencies given in kHz,
whose propagator has a closed form, or from explicit unitary matrices
(identity, SWAP, or a custom matrix). ``env_reset`` refreshes the
environment in its initial state after every interval, which makes the
process exactly Markovian and is used as a zero-memory reference.
``meas_channel`` composes a fixed error channel on the system immediately
before readout; tomography treats it as part of the process.

``simulate_grid`` runs every combination of one gate per slot at once,
propagating each shared prefix once; ``run_sequence(model, gates)`` is
its one-gate-per-slot case and takes any sequence of gates.
``simulate_experiment`` adds the measurement: counts ``[plus, minus]`` per
sequence and axis, shape grid + ``(3, 2)``; ``draw_pair_counts`` is the
two-qubit readout of the decoupling probe.

Shot sampling uses counter-based Philox streams keyed by (master seed,
record index, axis or pair setting), so any record can be regenerated
in isolation and runs are reproducible under any execution order. The
draws compute every stream's key in one vectorised pass (``stream_keys``)
and re-key one Philox per draw, which gives the numbers of ``rng_stream``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    KET0,
    PAULI_MINUS,
    PAULI_PLUS,
    QuantumChannel,
    apply_channel,
    check_density_matrix,
    check_unitary,
    ket_dm,
    partial_trace,
)

GATE_NS = 72.0  # one gate-equivalent of wall time

AXES = ("X", "Y", "Z")


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for (master seed, path...)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence hash constants (uint32 arithmetic)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def stream_keys(master_seed: int, records: Sequence[int],
                n: int) -> np.ndarray:
    """Philox keys of the streams (master seed, r, a) for every record ``r``
    and ``a < n``, shape ``(N, n, 2)`` uint64: key ``[i, a]`` is that of
    ``rng_stream(master_seed, records[i], a)``.

    numpy's SeedSequence hash, run on whole uint32 arrays: hash the
    zero-padded master seed words into a pool of four, mix the pool, then
    mix in the remaining words (extra seed words, ``r``, ``a``).
    """
    seed = operator.index(master_seed)
    recs = np.asarray(records, dtype=np.int64).reshape(-1)
    if seed < 0 or np.any((recs < 0) | (recs > _M32)):
        raise ValueError("need a non-negative seed and record indices "
                         "in [0, 2**32)")
    shape = (len(recs), n)
    words = [seed >> s & _M32
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.full(shape, w, dtype=np.uint32)
             for w in words + [0] * (4 - len(words))]
    words += [np.broadcast_to(recs.astype(np.uint32)[:, None], shape),
              np.broadcast_to(np.arange(n, dtype=np.uint32), shape)]
    h = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal h
        value = (value ^ h) * (h := h * mult & _M32)
        return value ^ value >> 16

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    h = _INIT_B  # generate_state(2, np.uint64): four words, little-endian
    state = np.stack([hashmix(p, _MULT_B) for p in pool], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _rekeyed(master_seed: int, records: Sequence[int], n: int):
    """One generator on each stream (master seed, r, a), ``r`` in
    ``records`` and ``a < n``, in that order: the same Philox, re-keyed
    with its counter at zero."""
    bits = np.random.Philox(0)
    gen, state = np.random.Generator(bits), bits.state  # a fresh, empty buffer
    # the state setter reads plain lists about three times faster than arrays
    inner = state["state"] = {"counter": [0] * 4, "key": None}
    state["buffer"] = state["buffer"].tolist()
    for key in stream_keys(master_seed, records, n).reshape(-1, 2).tolist():
        inner["key"] = key
        bits.state = state
        yield gen


def khz_to_rad_per_ns(freq_khz: float) -> float:
    return 2.0 * np.pi * freq_khz * 1e-6


def interval_propagator(exchange_khz: float, zz_khz: float,
                        duration_ns: float) -> np.ndarray:
    """The coupling's propagator over ``duration_ns`` in closed form.

    ``H`` is block-diagonal. With ``G = g t`` and ``Z = zeta t / 2``, the
    |00> and |11> entries are e^{-iZ} and the {|01>, |10>} block is
    e^{iZ} [[cos G, -i sin G], [-i sin G, cos G]]. A phase that overflows
    gives NaN entries.
    """
    t = float(duration_ns)
    big_g = khz_to_rad_per_ns(exchange_khz) * t
    big_z = khz_to_rad_per_ns(zz_khz) * t / 2.0
    edge = np.exp(-1j * big_z)
    c, s = np.exp(1j * big_z) * np.array([np.cos(big_g), -1j * np.sin(big_g)])
    return np.array([[edge, 0, 0, 0], [0, c, s, 0], [0, s, c, 0],
                     [0, 0, 0, edge]])


def env_initial_state(kind: str) -> np.ndarray:
    """Neighbour-qubit initial state for a named preset."""
    if kind == "zero":
        return ket_dm(KET0)
    if kind == "plus":
        return ket_dm(np.array([1.0, 1.0]) / np.sqrt(2.0))
    raise ValueError(f"unknown environment initialization {kind!r}")


def initial_joint_state(kind: str) -> np.ndarray:
    """System-neighbour initial state for a named preset."""
    if kind == "bell":
        return ket_dm(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
    if kind == "plus_plus":
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        return ket_dm(np.kron(plus, plus))
    return np.kron(ket_dm(KET0), env_initial_state(kind))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SEModel:
    """Qubit-neighbour model: initial state, one propagator per slot, flags."""

    intervals: tuple[np.ndarray, ...]
    initial_se: np.ndarray
    env_reset: bool = False
    meas_channel: QuantumChannel | None = None

    def __post_init__(self) -> None:
        for idx, u in enumerate(self.intervals):
            check_unitary(np.asarray(u), name=f"interval {idx}")
            if np.asarray(u).shape != (4, 4):
                raise ValueError(f"interval {idx} has shape "
                                 f"{np.asarray(u).shape}, need (4, 4)")
        check_density_matrix(self.initial_se, name="initial joint state")
        if self.initial_se.shape != (4, 4):
            raise ValueError("initial joint state dimension mismatch")

    @property
    def steps(self) -> int:
        return len(self.intervals)


def make_model(env_init: str = "zero", steps: int = 3,
               exchange_khz: float = 50.0, zz_khz: float = 30.0,
               duration_ns: float = GATE_NS * 2,
               env_reset: bool = False,
               meas_channel: QuantumChannel | None = None,
               intervals: tuple[np.ndarray, ...] | None = None) -> SEModel:
    """Convenience builder for the default coupled-neighbor model family:
    ``steps`` intervals of ``duration_ns`` each, so one propagator."""
    if intervals is None:
        intervals = (interval_propagator(exchange_khz, zz_khz, duration_ns),) \
            * steps
    return SEModel(intervals=intervals, initial_se=initial_joint_state(env_init),
                   env_reset=env_reset, meas_channel=meas_channel)


def _joint_states(model: SEModel,
                  slots: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Joint states after every choice of one gate per slot.

    ``slots[s]`` lists the candidate gates for slot ``s``; the result has
    shape ``(len(slots[0]), ..., len(slots[-1]), d, d)``. Each slot acts on
    the whole stack of prefixes at once, so a prefix shared by many
    sequences is propagated once.
    """
    if len(slots) != model.steps:
        raise ValueError(
            f"sequence has {len(slots)} steps but the model has {model.steps} intervals")
    rho = model.initial_se
    env0 = partial_trace(model.initial_se, 1) if model.env_reset else None
    lifted = {}  # id(gate) -> (gate, kron(U, I)); holding gate keeps its id unique
    for gates, u in zip(slots, model.intervals):
        outs = []
        for gate in gates:
            if id(gate) not in lifted:
                lifted[id(gate)] = gate, np.kron(gate, np.eye(2))
            g = lifted[id(gate)][1]
            outs.append(g @ rho @ g.conj().T)
        rho = np.stack(outs, axis=-3)
        rho = u @ rho @ u.conj().T
        if model.env_reset:
            sys = partial_trace(rho, 0)
            rho = np.einsum("...ac,bd->...abcd", sys, env0).reshape(rho.shape)
    return rho


def _system_states(model: SEModel,
                   slots: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Unchecked readout states of ``_joint_states``: the environment traced
    out and the measurement channel applied."""
    rho = _joint_states(model, slots)
    out = partial_trace(rho, 0)
    if model.meas_channel is not None:
        out = apply_channel(model.meas_channel, out)
    return out


def simulate_grid(model: SEModel,
                  slots: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Exact reduced system states of a grid of sequences.

    Entry ``[a, b, ...]`` is ``run_sequence`` of the sequence
    ``(slots[0][a], slots[1][b], ...)``, bit for bit.
    """
    # guard, not a projection: the exact simulation must stay physical
    return check_density_matrix(_system_states(model, slots),
                                name="simulated state")


def run_sequence(model: SEModel, gates: Sequence[np.ndarray]) -> np.ndarray:
    """Exact reduced system state after the sequence of gates."""
    out = _system_states(model, [(gate,) for gate in gates])
    return check_density_matrix(out.reshape(out.shape[-2:]),
                                name="simulated state")


def two_qubit_probe(model: SEModel,
                    slots: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Joint system-neighbor states of a grid of sequences, shape
    ``(len(slots[0]), ..., 4, 4)``."""
    if model.env_reset:
        raise ValueError("two_qubit_probe is meaningless with env_reset")
    return check_density_matrix(_joint_states(model, slots),
                                name="joint probe state")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def outcome_probabilities(states: np.ndarray) -> np.ndarray:
    """P(+) on the X, Y and Z axes for a state or a ``(..., 2, 2)`` stack,
    shape ``(..., 3)``, clipped to [0, 1]."""
    return np.stack([np.clip(np.einsum("ij,...ji->...", PAULI_PLUS[ax],
                                       states).real, 0.0, 1.0)
                     for ax in AXES], axis=-1)


def draw_counts(probs: np.ndarray, shots: int | None, master_seed: int,
                records: Sequence[int]) -> np.ndarray:
    """Three-axis counts ``[plus, minus]``, shape ``(N, 3, 2)``, from the
    P(+) stack ``probs`` ``(N, 3)`` of the sequences with record indices
    ``records``.

    Axis ``a`` of record ``r`` draws a binomial from the stream (master
    seed, r, a). ``shots=None`` returns the exact probabilities instead.
    """
    if shots is None:
        return np.stack([probs, 1.0 - probs], axis=-1)
    if shots <= 0:
        raise ValueError("shots must be positive")
    if len(records) != len(probs):
        raise ValueError("need one record index per row of probabilities")
    plus = np.empty(probs.shape, dtype=np.int64)
    flat = plus.reshape(-1)
    streams = _rekeyed(master_seed, records, probs.shape[-1])
    for i, (gen, p) in enumerate(zip(streams, probs.reshape(-1))):
        flat[i] = gen.binomial(shots, p)
    return np.stack([plus, shots - plus], axis=-1)


def simulate_experiment(model: SEModel, slots: Sequence[Sequence[np.ndarray]],
                        shots: int | None, master_seed: int,
                        first_record: int = 0) -> np.ndarray:
    """Simulate a grid of sequences and draw (or compute exactly) their
    three-axis counts, shape ``(len(slots[0]), ..., 3, 2)``.

    The record index of a sequence is ``first_record`` plus its C-order
    position in the grid.
    """
    probs = outcome_probabilities(simulate_grid(model, slots))
    flat = probs.reshape(-1, len(AXES))
    counts = draw_counts(flat, shots, master_seed,
                         range(first_record, first_record + len(flat)))
    return counts.reshape(probs.shape + (2,))


# two-qubit readout used by the decoupling probe ---------------------------

PAIR_SETTINGS = tuple((a, b) for a in AXES for b in AXES)
# the outcome projectors [++, +-, -+, --] of each pair setting, (9, 4, 4, 4)
PAIR_PROJECTORS = np.array([[np.kron(pa, pb)
                             for pa in (PAULI_PLUS[a], PAULI_MINUS[a])
                             for pb in (PAULI_PLUS[b], PAULI_MINUS[b])]
                            for a, b in PAIR_SETTINGS])


def draw_pair_counts(joints: np.ndarray, shots: int,
                     master_seed: int) -> np.ndarray:
    """Outcome counts ``[++, +-, -+, --]`` of the nine Pauli-pair settings
    for a stack of joint states ``(N, 4, 4)``, shape ``(N, 9, 4)``.

    Setting ``s`` of record ``r`` (the state's stack position) draws a
    multinomial from the stream (master seed, r, s); negative outcome
    probabilities are clipped to zero and each setting renormalised.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = np.stack([np.maximum(np.einsum("ij,...ji->...", pr, joints).real,
                                 0.0)
                      for pr in PAIR_PROJECTORS.reshape(-1, 4, 4)], axis=-1)
    probs = probs.reshape(len(joints), len(PAIR_SETTINGS), 4)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    counts = np.empty(probs.shape, dtype=np.int64)
    streams = _rekeyed(master_seed, range(len(probs)), len(PAIR_SETTINGS))
    for gen, p, row in zip(streams, probs.reshape(-1, 4),
                           counts.reshape(-1, 4)):
        row[...] = gen.multinomial(shots, p)
    return counts
