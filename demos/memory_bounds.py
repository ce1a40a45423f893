"""Bound environmental memory with depolarizing barriers.

A probe bit is encoded before a barrier and decoded after it. The
barrier erases everything the system itself carries, so any conditional
mutual information that survives must have travelled through the
environment. The bound is ~0 when the environment resets every step, a
full bit when the intervals swap system and neighbour, and in between
for coherent exchange coupling.
"""

import numpy as np

from proctensor.basis import generate_haar_basis
from proctensor.memory import maximize_cmi
from proctensor.simulator import make_model, simulate_grid
from proctensor.tomography import build_standard_tensor, standard_slots

POOL, N = 14, 12
# exchanges the system and its neighbour qubit
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

basis = generate_haar_basis(POOL, seed=7)


def tensor_of(model):
    states = simulate_grid(model, standard_slots(basis))
    return build_standard_tensor(states, basis, N)


cases = {
    "reset each step": make_model(env_reset=True),
    "swap intervals": make_model(
        intervals=(SWAP, SWAP, np.eye(4, dtype=complex))),
    "coupled, ground neighbour": make_model(duration_ns=2500.0,
                                            env_init="zero"),
    "coupled, coherent neighbour": make_model(duration_ns=2500.0,
                                              env_init="plus"),
}
print("barrier after the first control slot:")
for label, model in cases.items():
    bound = maximize_cmi(tensor_of(model), (1,), restarts=4, seed=0)
    print(f"  {label:<28} memory >= {bound.bits:.4f} bits")
