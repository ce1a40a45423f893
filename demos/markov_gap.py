"""Composable channels cannot explain a process with memory.

Characterize each interval as an independent channel and predict
sequences by composing the pieces. That model is exact whenever no
correlation crosses a gate boundary, so its failure is itself a memory
witness: with a coherent neighbour the baseline trails the process
tensor by percentage points, and resetting the environment closes the
gap entirely.
"""

from proctensor.basis import generate_haar_basis
from proctensor.markov import characterize, compare_with_tensor
from proctensor.simulator import make_model, simulate_grid
from proctensor.tomography import evaluate_split, standard_slots

POOL, N = 14, 12

basis = generate_haar_basis(POOL, seed=7)
for label, reset in (("coupled neighbour", False), ("environment reset", True)):
    model = make_model(duration_ns=2500.0, env_init="plus", env_reset=reset)
    states = simulate_grid(model, standard_slots(basis))
    ev = evaluate_split(states, basis, N)
    baseline = characterize(model, basis, None, master_seed=1)
    comp = compare_with_tensor(ev.fidelities, states, baseline)
    print(f"{label}:")
    print(f"  process tensor median fidelity {comp.tensor_stats.median:.6f}")
    print(f"  composable model median fidelity {comp.markov_stats.median:.6f}")
    gap_pp = 100.0 * comp.median_gap
    print(f"  gap {0.0 if abs(gap_pp) < 1e-9 else gap_pp:.3f} percentage points")
