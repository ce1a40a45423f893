"""Decoupling-pulse search and non-unitary gate synthesis.

Both tasks run entirely through reconstructed one-step process tensors,
so the optimizer only ever sees quantities an experiment could produce.

Decoupling: the probe sandwiches one gate slot between two idle windows
and reads out the system together with its coupled neighbor. Minimizing
2 - purity(system) - purity(neighbor) over the gate drives both marginals
pure, which forces the joint state toward a product of pure states and
thereby strips the system-neighbor correlations the idles build up.

Synthesis: the probe is (preparation slot, gate slot) with an idle window
after each, and the target is a non-unitary map. The gate angles are
tuned so the tensor's predicted outputs match the target's outputs on
four informationally complete preparations; the surrounding idles supply
the non-unitarity that a bare unitary gate cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore as optimize  # bench/tracer.py counts searches by this name
from .basis import ControlBasis, standard_preparations
from .qcore import (
    ID2,
    PAULI_PLUS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    QuantumChannel,
    apply_channel,
    channel_from_kraus,
    lockstep,
    mutual_information_state,
    negativity,
    partial_trace,
    process_fidelity,
    purity,
    rotation_axis_angle,
    rotation_gate,
    u3_entries,
    u3_matrix,
    unitarity,
)
from .simulator import (
    SEModel,
    draw_pair_counts,
    initial_joint_state,
    interval_propagator,
    make_model,
    rng_stream,
    two_qubit_probe,
)
from .tomography import (
    ProcessTensor,
    assemble,
    channel_from_prep_outputs,
    coefficient_map,
    measure_grid,
    mle_project,
    pair_qst_mle,
    prep_slot,
    qubit_bloch,
    slot_coefficients,
    slot_kernel,
    standard_slots,
    unitary_slot,
)

DECOUPLING_IDLE_NS = 256.0
# |+><+| with entries exactly 1/2: the neighbor's marginal of the probe's
# |++> preparation, the state the decoupling search hands back to it
DECOUPLING_ENV_REF = PAULI_PLUS["X"]
TIE_TOL = 1e-6  # decoupling minima this close to the best one are tied
SYNTHESIS_IDLE_NS = 800.0


# ---------------------------------------------------------------------------
# Decoupling
# ---------------------------------------------------------------------------

def decoupling_model(exchange_khz: float = 50.0,
                     zz_khz: float = 30.0) -> SEModel:
    """One-slot probe layout from |++>: idle, gate, idle (pre-idle folded
    into the initial joint state so the model carries a single interval)."""
    v = interval_propagator(exchange_khz, zz_khz, DECOUPLING_IDLE_NS)
    init = v @ initial_joint_state("plus_plus") @ v.conj().T
    return SEModel(intervals=(v,), initial_se=init)


def build_decoupling_tensor(model: SEModel, basis: ControlBasis,
                            shots: int | None = None,
                            master_seed: int = 0) -> ProcessTensor:
    """One-slot tensor mapping the gate to the joint two-qubit output: the
    exact joint states when ``shots`` is None, otherwise the two-qubit QST
    of their pair counts (the record index of gate ``nu`` is ``nu``)."""
    joints = two_qubit_probe(model, [basis.unitaries])
    states = joints if shots is None else \
        pair_qst_mle(draw_pair_counts(joints, shots, master_seed))
    return assemble([unitary_slot(basis.unitaries)], states)


def decoupling_kernel(pt: ProcessTensor) -> np.ndarray:
    """The readout kernel R (4, 4, 16): ``v @ (v.conj() @ R)`` is the joint
    output for the gate u with v = vec(u.T), as in ``synthesis_kernel``."""
    return (slot_kernel(pt.states, [coefficient_map(pt.duals[0])])
            / 2).reshape(4, 4, 16)


def _decoupling_losses(kernel: np.ndarray, x: np.ndarray,
                       env_ref: np.ndarray) -> tuple[float, float]:
    """Purity loss and restoration error of the projected joint output for the
    u3 angles ``x``, NaN if it is not finite; F = tr(ab) + 2 sqrt(det a det b)."""
    u00, u01, u10, u11 = u3_entries(*np.asarray(x, dtype=float).tolist())
    v = np.array((u00, u10, u01, u11))
    joint = (v @ (v.conj() @ kernel)).reshape(4, 4)
    if not np.isfinite(joint).all():
        return math.nan, math.nan
    (j00, j01, j02, _), (_, j11, _, j13), (_, _, j22, j23), (*_, j33) = \
        mle_project(joint).tolist()
    # marginal entries (m00, m11, m01) of the system (a) and the neighbor (b)
    a00, a11, a01 = (j00 + j11).real, (j22 + j33).real, j02 + j13
    b00, b11, b01 = (j00 + j22).real, (j11 + j33).real, j01 + j23
    purities = a00 * a00 + a11 * a11 + 2.0 * abs(a01) ** 2 \
        + b00 * b00 + b11 * b11 + 2.0 * abs(b01) ** 2
    (e00, e01), (_, e11) = env_ref.tolist()
    dets = max(b00 * b11 - abs(b01) ** 2, 0.0) * max((e00 * e11).real - abs(e01) ** 2, 0.0)
    fid = (b00 * e00 + b11 * e11).real + 2.0 * (b01 * e01.conjugate()).real \
        + 2.0 * math.sqrt(dets)  # exact against a pure reference: dets = 0
    return max(0.0, 2.0 - purities), max(0.0, 1.0 - fid)


def decoupling_objective(kernel: np.ndarray, x: np.ndarray) -> float:
    """2 - purity(q1) - purity(q2) of the joint output for the u3 angles x."""
    return _decoupling_losses(kernel, x, DECOUPLING_ENV_REF)[0]


def restoration_error(kernel: np.ndarray, x: np.ndarray,
                      env_ref: np.ndarray) -> float:
    """1 - fidelity between the predicted neighbor marginal and its
    preparation state.

    A single probe application cannot distinguish gates whose idle-gate-idle
    block acts locally from gates that merely steer this one input back to
    a product state. A block that also hands the neighbor back unchanged
    repeats cleanly period after period, so this is the tensor-predictable
    proxy for periodic performance.
    """
    return _decoupling_losses(kernel, x, env_ref)[1]


@dataclass(frozen=True)
class DecouplingResult:
    params: np.ndarray  # the gate's u3 angles
    objective: float
    axis: tuple[float, float, float]
    angle: float
    identity_objective: float
    degenerate: bool

    @property
    def gate(self) -> np.ndarray:
        return u3_matrix(*self.params)


def optimize_decoupling(pt: ProcessTensor, restarts: int = 20, seed: int = 0,
                        maxiter: int = 400) -> DecouplingResult:
    """Derivative-free search for the purity-restoring gate.

    Stage one minimizes the purity objective from ``restarts`` starting
    points. Minima frequently tie: many gates refocus the single probed
    input equally well. Stage two re-polishes the tied candidates with a
    heavy objective penalty plus the restoration error against the neighbor
    marginal ``DECOUPLING_ENV_REF`` and keeps the candidate that restores
    best without giving up the objective, so the returned argmin is the one
    expected to hold up under repetition.
    Deterministic for a fixed seed.
    """
    kernel = decoupling_kernel(pt)

    def objective(x: np.ndarray) -> float:
        return decoupling_objective(kernel, x)

    def polish(x: np.ndarray) -> float:
        loss, restoration = _decoupling_losses(kernel, x, DECOUPLING_ENV_REF)
        return 1e3 * loss + restoration

    candidates, = optimize.multistart(lambda starts: [
        optimize.minimize(objective, x0, maxiter=maxiter, xatol=1e-6,
                          fatol=1e-8) for x0 in starts],
        np.zeros(3), [rng_stream(seed, 303)], restarts, "decoupling")
    best = min(candidates, key=lambda res: res.fun)
    best_f, best_x = float(best.fun), best.x

    polished = [optimize.minimize(polish, res.x, maxiter=maxiter, xatol=1e-6,
                                  fatol=1e-10).x
                for res in candidates if res.fun <= best_f + TIE_TOL]
    scored = [(*_decoupling_losses(kernel, x, DECOUPLING_ENV_REF), x)
              for x in polished]
    admissible = [s for s in scored if s[0] <= best_f + TIE_TOL]
    if admissible:
        best_f, _, best_x = min(admissible, key=lambda s: s[1])

    axis, angle = rotation_axis_angle(u3_matrix(*best_x))
    identity_obj = decoupling_objective(kernel, np.zeros(3))
    return DecouplingResult(params=best_x, objective=float(best_f),
                            axis=tuple(float(v) for v in axis), angle=float(angle),
                            identity_objective=float(identity_obj),
                            degenerate=bool(identity_obj - best_f < 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """Joint-evolution time series sampled at period boundaries."""

    time_ns: np.ndarray = field(repr=False)
    negativity: np.ndarray = field(repr=False)
    mutual_info_bits: np.ndarray = field(repr=False)
    purity_q1: np.ndarray = field(repr=False)
    purity_q2: np.ndarray = field(repr=False)
    label: str = ""


XY4_CYCLE = (PAULI_X, PAULI_Y, PAULI_X, PAULI_Y)


def trajectory_model(exchange_khz: float = 50.0, zz_khz: float = 30.0,
                     period_ns: float = 500.0, env_init: str = "plus_plus") -> SEModel:
    """The pair's initial state and its propagator over one period."""
    return make_model(env_init, 1, exchange_khz, zz_khz, period_ns)


def simulate_trajectory(gates_cycle: tuple[np.ndarray, ...] | None,
                        period_ns: float = 500.0, horizon_ns: float = 25_000.0,
                        exchange_khz: float = 50.0, zz_khz: float = 30.0,
                        env_init: str = "plus_plus", label: str = "") -> Trajectory:
    """Evolve the joint pair, applying the gate cycle once per period.

    ``gates_cycle=None`` is idle evolution. The recorded metrics are all
    invariant under the local gate itself, so sampling at the period
    boundary captures the physics of interest.
    """
    if period_ns <= 0 or horizon_ns <= 0:
        raise ValueError("period and horizon must be positive")
    model = trajectory_model(exchange_khz, zz_khz, period_ns, env_init)
    (v,), state = model.intervals, model.initial_se
    kicks = [np.kron(g, ID2) for g in gates_cycle or ()]
    steps = int(np.floor(horizon_ns / period_ns + 1e-9))
    series = [state]
    for s in range(steps):
        state = v @ state @ v.conj().T
        if kicks:
            state = (g := kicks[s % len(kicks)]) @ state @ g.conj().T
        series.append(state)
    states = np.array(series)
    return Trajectory(time_ns=period_ns * np.arange(steps + 1.0),
                      negativity=negativity(states),
                      mutual_info_bits=mutual_information_state(states),
                      purity_q1=purity(partial_trace(states, 0)),
                      purity_q2=purity(partial_trace(states, 1)), label=label)


# ---------------------------------------------------------------------------
# Non-unitary gate synthesis
# ---------------------------------------------------------------------------

def nonunitary_target(alpha: float, eta: float) -> QuantumChannel:
    """Target map with operator elements sqrt(eta) E and sqrt(1-eta) Y E,
    E = R_X(alpha) R_Y(alpha) R_Z(alpha); unitarity (1 + 2(1-2 eta)^2)/3."""
    if not 0.0 <= eta <= 0.5:
        raise ValueError(f"eta {eta} outside [0, 0.5]")
    e = rotation_gate("X", alpha) @ rotation_gate("Y", alpha) @ rotation_gate("Z", alpha)
    kraus = [np.sqrt(eta) * e, np.sqrt(1.0 - eta) * (PAULI_Y @ e)]
    return channel_from_kraus(kraus)


def synthesis_model(exchange_khz: float = 50.0,
                    zz_khz: float = 30.0) -> SEModel:
    """Two-slot layout from |00>: preparation, idle, gate, idle, readout."""
    v = interval_propagator(exchange_khz, zz_khz, SYNTHESIS_IDLE_NS)
    return SEModel(intervals=(v, v), initial_se=initial_joint_state("zero"))


def build_synthesis_tensor(model: SEModel, basis: ControlBasis,
                           shots: int | None = None,
                           master_seed: int = 0) -> ProcessTensor:
    """(preparation, gate) tensor over the pool, system readout."""
    if model.steps != 2:
        raise ValueError("synthesis layout has exactly two control slots")
    states = measure_grid(model, standard_slots(basis)[:2], shots, master_seed)
    return assemble([prep_slot(basis.preparations),
                     unitary_slot(basis.unitaries)], states)


def synthesis_kernel(pt: ProcessTensor,
                     *targets: QuantumChannel) -> tuple[np.ndarray, list]:
    """The readout kernel R[a, b, (i, mu)] (4, 4, 16) and, per target, its
    four output Bloch vectors as float lists (4 of 3).

    R = tr(sigma_mu K[i, ab]) / 2 with sigma_0 = I, where K[i, ab] is the
    tensor's output for standard preparation i per entry (a, b) of the
    gate slot's matrix form. A gate's form is v v^dag / 2 with v = vec(u.T)
    (``unitary_choi``'s order), so v R v^dag holds each prediction's trace
    and unnormalised Bloch vector.
    """
    preps = standard_preparations()
    prep_coeffs = np.array([slot_coefficients(pt.slots[0], pt.duals[0], p.gate)
                            for p in preps]).T
    weights = slot_kernel(pt.states,
                          [prep_coeffs, coefficient_map(pt.duals[1])])
    paulis = np.array([ID2, PAULI_X, PAULI_Y, PAULI_Z])
    readout = 0.5 * np.einsum("mts,ipst->pim", paulis, weights)
    outputs = np.array([[apply_channel(t, p.state) for p in preps] for t in targets])
    return readout.reshape(4, 4, 16), qubit_bloch(outputs).tolist()


def synthesis_loss(kernel: tuple[np.ndarray, list], xs: np.ndarray) -> np.ndarray:
    """Summed trace distance between tensor predictions and target outputs
    over the four standard preparations, per row of u3 angles ``xs`` (B, 3);
    row k is scored against the kernel's k-th target.

    Each prediction is trace-normalised and projected onto the Bloch ball;
    the trace distance of two qubit states is half their Bloch distance.
    A non-finite angle gives NaN in its row.
    """
    readout, targets = kernel
    v = np.array([(u00, u10, u01, u11) for u00, u01, u10, u11 in (
        u3_entries(*x) for x in np.asarray(xs, dtype=float).tolist())])
    # each stack element is the (1, 4) @ (4, 16) product a one-row call makes,
    # so a row's loss does not depend on the other rows
    preds = (v[:, None] @ (v.conj()[:, None, None] @ readout)[:, :, 0]).real
    losses = []
    for pred, target in zip(preds.reshape(-1, 4, 4).tolist(), targets):
        loss = 0.0
        for (tr, bx, by, bz), (tx, ty, tz) in zip(pred, target):
            bx, by, bz = bx / tr, by / tr, bz / tr
            r = math.hypot(bx, by, bz)
            if r > 1.0:
                bx, by, bz = bx / r, by / r, bz / r
            loss += 0.5 * math.hypot(bx - tx, by - ty, bz - tz)
        losses.append(loss)
    return np.array(losses)


@dataclass(frozen=True)
class SynthesisResult:
    params: np.ndarray  # the gate's u3 angles
    loss: float

    @property
    def gate(self) -> np.ndarray:
        return u3_matrix(*self.params)


def synthesize_gates(pt: ProcessTensor, targets: list[QuantumChannel],
                     restarts: int = 20, seed: int = 0,
                     maxiter: int = 400) -> list[SynthesisResult]:
    """Tune one gate per target so the tensor's predictions reproduce it, all
    restarts of all targets as lanes of one ``lockstep``; target ``idx`` draws
    its starts from stream ``seed + idx``."""
    readout, blochs = synthesis_kernel(pt, *targets)

    def search(starts: list[np.ndarray]) -> list[optimize.SearchResult]:
        each = len(starts) // len(blochs)  # target k's starts are consecutive
        return lockstep(lambda xs, lanes: synthesis_loss(
            (readout, [blochs[k // each] for k in lanes]), xs),
            starts, maxiter=maxiter, xatol=1e-6, fatol=1e-8)

    rngs = [rng_stream(seed + idx, 505) for idx in range(len(blochs))]
    groups = optimize.multistart(search, np.zeros(3), rngs, restarts, "synthesis")
    bests = [min(runs, key=lambda res: res.fun) for runs in groups]  # first minima
    return [SynthesisResult(params=b.x, loss=float(b.fun)) for b in bests]


def qpt(model: SEModel, gates: np.ndarray, shots: int | None = None,
        master_seed: int = 0) -> list[QuantumChannel]:
    """Process tomography of the embedded gate layout, one channel per gate.

    Runs the four standard preparations through the model with each gate in
    the second slot, tomographs the outputs, solves for the linear maps and
    projects them onto the CPTP set together.
    """
    if model.steps != 2:
        raise ValueError("qpt layout has exactly two control slots")
    slots = ([p.gate for p in standard_preparations()], gates)
    outputs = measure_grid(model, slots, shots, master_seed)
    return channel_from_prep_outputs(outputs.swapaxes(0, 1))


@dataclass(frozen=True)
class SweepPoint:
    eta: float
    target_unitarity: float
    loss: float
    params: np.ndarray
    process_fidelity: float
    realized_unitarity: float


def synthesis_sweep(pt: ProcessTensor, model: SEModel, alpha: float,
                    etas: np.ndarray | None = None, restarts: int = 20,
                    seed: int = 0, maxiter: int = 400) -> list[SweepPoint]:
    """Synthesize across the eta grid and score each realized channel."""
    etas = np.linspace(0.0, 0.5, 11) if etas is None else etas
    targets = [nonunitary_target(alpha, float(eta)) for eta in etas]
    if not targets:
        return []
    results = synthesize_gates(pt, targets, restarts, seed, maxiter)
    realized = qpt(model, [res.gate for res in results])
    return [SweepPoint(eta=float(eta), target_unitarity=float(unitarity(target)),
                       loss=res.loss, params=res.params,
                       process_fidelity=float(process_fidelity(ch, target)),
                       realized_unitarity=float(unitarity(ch)))
            for eta, target, res, ch in zip(etas, targets, results, realized)]
