"""Search the slot tensor for a gate that refocuses the coupling.

The probe tensor watches the system and its neighbour around a single
idle window, so candidate gates can be scored without new experiments.
The winner, repeated every half microsecond, keeps the qubit pure over a
horizon where idling lets it entangle with the neighbour.
"""

from proctensor.basis import generate_haar_basis
from proctensor.control import (build_decoupling_tensor, decoupling_model,
                                optimize_decoupling, simulate_trajectory)

basis = generate_haar_basis(14, seed=7)
pt = build_decoupling_tensor(decoupling_model(), basis, shots=None)
res = optimize_decoupling(pt, restarts=8, seed=0)

axis = ", ".join(f"{c:+.2f}" for c in res.axis)
print(f"optimized pulse: rotation by {res.angle:.4f} rad about ({axis})")
idle = simulate_trajectory(None)
dec = simulate_trajectory((res.gate,))
horizon_us = idle.time_ns[-1] / 1000.0
print(f"over a {horizon_us:.0f} us horizon, pulsed every 0.5 us:")
print(f"  {'':<18}{'idle':>10}{'decoupled':>12}")
print(f"  {'minimum purity':<18}{idle.purity_q1.min():>10.4f}"
      f"{dec.purity_q1.min():>12.4f}")
print(f"  {'peak negativity':<18}{idle.negativity.max():>10.4f}"
      f"{dec.negativity.max():>12.4f}")
print(f"  {'peak mutual info':<18}{idle.mutual_info_bits.max():>10.4f}"
      f"{dec.mutual_info_bits.max():>12.4f}")
