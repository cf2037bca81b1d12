"""Walk through the reduction pipeline for 2-cocycles, family by family.

For each built-in group family we take the model data (basis sizes and the
two codifferential matrices over Z2), run the Smith-form steps, and lift
the surviving coordinate rows to honest 2-cocycles on the group.  The
lifted matrices land exactly on the documented closed forms: Kronecker
products of all-ones blocks and back negacyclic matrices.
"""

import numpy as np

from cocyred import (back_negacyclic, build_group, builtin_model,
                     full_cocycle_basis, kronecker, all_ones,
                     parse_group_spec, tensor_from_cochain)

np.set_printoptions(linewidth=120)


def show(spec_text: str):
    spec = parse_group_spec(spec_text)
    model = builtin_model(spec, 2)
    out = full_cocycle_basis(model, 2)
    n = 2
    q, r, s = (model.dims[n - 1], model.dims[n], model.dims[n + 1])
    print(f"--- {spec} (order {spec.order}) ---")
    print(f"model dims (q, r, s) = ({q}, {r}, {s}); "
          f"ranks l = {out.snf_lower.rank}, k = {out.snf_upper.rank}; "
          f"dim H^2 = {out.hdim}")
    print(f"coboundary basis ({len(out.cobs)} generators): "
          f"{', '.join(out.cobs.labels)}")
    for label, cochain in out.reps.entries:
        mat = tensor_from_cochain(cochain).entries
        print(f"{label}:")
        print(mat)
    print()


for text in ("g1:1", "g1:2", "g2:2", "g2:3", "d4t:2"):
    show(text)

# the first g1 representative is literally BN_2t ⊗ 1_2
spec = parse_group_spec("g1:2")
out = full_cocycle_basis(builtin_model(spec, 2), 2)
lifted = tensor_from_cochain(out.reps.entries[0][1]).entries
assert (lifted == kronecker(back_negacyclic(4), all_ones(2))).all()
print("g1:2 rep:1 equals BN_4 ⊗ 1_2, as documented.")
