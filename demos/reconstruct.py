"""Reconstruct a restricted process tensor from sampled tomography data.

Simulates the standard experiment grid on the coupled-neighbour model,
rebuilds the tensor from the first n pool elements and scores it on the
sequences it never saw. A larger basis soaks up shot noise; reordering
the pool by overlap makes even the minimal basis usable.
"""

from proctensor.basis import (generate_haar_basis, order_by_overlap,
                              overlap_order)
from proctensor.simulator import make_model, simulate_experiment
from proctensor.tomography import evaluate_split, qst_mle, standard_slots

POOL, SHOTS = 14, 1600

model = make_model()
basis = generate_haar_basis(POOL, seed=7)
print(f"simulating {4 * POOL * POOL} sequences at {SHOTS} shots each")
# counts (4, POOL, POOL, 3, 2); sequence idx (C order) draws from the
# streams (seed 0, idx, axis)
counts = simulate_experiment(model, standard_slots(basis), SHOTS, 0)
states = qst_mle(counts, SHOTS)

for n in (10, 12):
    res = evaluate_split(states, basis, n)
    print(f"basis size {n}: median held-out infidelity "
          f"{1.0 - res.stats.median:.2e} over {res.fidelities.size} sequences")

perm = overlap_order(basis)
plain = evaluate_split(states, basis, 10)
ordered = evaluate_split(states[:, perm][:, :, perm],
                         order_by_overlap(basis), 10)
print(f"minimal basis, pool order:    mean fidelity {plain.stats.mean:.4f}")
print(f"minimal basis, least overlap: mean fidelity {ordered.stats.mean:.4f}")
