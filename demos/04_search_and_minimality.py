"""Exhaustive model search: minimality and uniqueness.

The searcher enumerates operation tables cell by cell with watch-list
propagation of ground sentence instances, optionally up to isomorphism.
When the Boolean axioms R1-R3 are required, the Boolean part can be fixed
outright (non-powers of two are impossible), which shrinks the space
enormously.
"""

from relalg import (TARSKI, SearchSpec, axiom_sentence, boolean_guided_search,
                    build_model, find_isomorphism, run_verification_suite,
                    search)


def axioms(ids):
    return tuple(axiom_sentence(i) for i in ids)


# At size 3 the independence model for R2 is unique up to isomorphism.
# (No Boolean shortcut here: with R2 itself failing, R1 and R3 alone do
# not force a Boolean skeleton.)
spec = SearchSpec(3, axioms(i for i in TARSKI if i != "R2"),
                  axioms(("R2",)), up_to_iso=True)
res = search(spec)
print(f"size-3 R2 search: {res.iso_class_count} iso class(es), "
      f"{res.labeled_count} labeled models, {res.nodes_explored} nodes")
print("isomorphic to the catalog model:",
      find_isomorphism(res.models[0], build_model("a2")) is not None)
print()

# With R1-R3 held, the guided search handles size 4 easily: the only
# independence models for R7 at the minimal size.
spec = SearchSpec(4, axioms(i for i in TARSKI if i != "R7"),
                  axioms(("R7",)), up_to_iso=True)
res = boolean_guided_search(spec)
print(f"size-4 R7 search: {res.iso_class_count} iso class(es), "
      f"{res.labeled_count} labeled models")
print("one of them is the catalog model a7:",
      any(find_isomorphism(m, build_model("a7")) for m in res.models))
print()

# The claim suite runs the minimality searches: no independence model below
# the catalog model's size.  Each claim records every size it covers; with
# R1-R3 held, a size that is not a power of two is skipped, since it has
# no Boolean skeleton.
for claim in run_verification_suite().claims:
    if claim.kind != "minimality":
        continue
    print(f"[{claim.status}] {claim.claim_id}: {claim.description}")
    for row in claim.evidence["sizes"]:
        note = row["skipped"] or f"{row['models']} models ({row['nodes']} nodes)"
        print(f"  size {row['size']}: {note}")
    print(f"  certificate {claim.evidence['certificate']} certified:",
          claim.evidence["certified"])
