"""Reproduce the two exhaustive 3-dimensional Hadamard searches.

Over the order-4 group Z_2 x Z_2 the degree-3 basis has 4 representatives
and 11 coboundary generators; walking all 2^15 products finds exactly 64
improper 3-dimensional Hadamard matrices, none proper.  Over Z_4 the basis
has 13 elements and the span contains exactly 32, again none proper.

One witness from each search is printed section by section.
"""

from cocyred import (SearchSpace, builtin_model, enumerate_span,
                     full_cocycle_basis, parse_group_spec, section,
                     tensor_of_combination, tensor_to_text)


def run(spec_text: str):
    spec = parse_group_spec(spec_text)
    out = full_cocycle_basis(builtin_model(spec, 3), 3, mode="all")
    space = SearchSpace.from_reduction(out)
    report = enumerate_span(space, ("improper", "proper"))
    print(f"--- {spec}: basis size m = {space.m}, "
          f"2^m = {report.examined} products ---")
    print(f"improper hits: {report.hits['improper']}, "
          f"proper hits: {report.hits['proper']}")
    w = report.witnesses[1]  # skip mask 0 if it were a hit; pick a small one
    print(f"example witness: {' · '.join(space.combo_labels(w.mask))}")
    print(tensor_to_text(tensor_of_combination(space, w.mask)))


run("g1:1")
run("cyclic:2")

# the displayed product of four coboundary generators over Z_2 x Z_2
spec = parse_group_spec("g1:1")
space = SearchSpace.from_reduction(
    full_cocycle_basis(builtin_model(spec, 3), 3, mode="all"))
ten = tensor_of_combination(space, ["cob:4", "cob:7", "cob:10", "cob:13"])
print("sections of cob:4 · cob:7 · cob:10 · cob:13 over g1:1:")
for k in range(4):
    print(section(ten, 2, k), "\n")
