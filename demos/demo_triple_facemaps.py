"""The triple space, its projections, and the commutation derivation.

The symmetric construction blows up twenty-one centers of the cube of a
manifold with fibred boundary.  To obtain the projections onto the
double space, the sequence is rewritten, through certified commutation
steps, into one that starts with a single factor times the double
space.  The resulting face tables are compared with the closed
face-table rule, and the two constructions are checked to be isomorphic.
"""

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs
from qhcalc.a_spaces import Tower

t = Tower(2, (1, 1, 1), 1, (1, 1))
trip = asp.triple_space(t)
print(f"triple space: {len(trip.space.faces)} boundary hypersurfaces")

print("\ncommuted sequence order:")
print("  " + ", ".join(st.label for st in trip.commuted.history))

print("\nface table of the first projection:")
tbl = asp.face_table(trip.projections[0])
for h in ("rf", "lf", "ff_zx", "ff_zy", "ff_z", "interior"):
    print(f"  {h:9s}<- {', '.join(tbl[h])}")

rep = asp.verify_facemaps(t)
print(f"\nreference comparison: {rep['tables']} tables, "
      f"{len(rep['mismatches'])} mismatches")

bij = cs.isomorphic(trip.space, trip.commuted, incidence="within")
print("constructions isomorphic:", bij is not None,
      "(identity on canonical names)" if bij and all(
          k == v for k, v in bij.items()) else "")
