"""Spectral checks for the flat product model.

The boundary family of the model operator diagonalizes over fibre
modes with eigenvalues |mu|^2 + 4 pi^2 |k|^2.  Off the closed half
line the family is invertible with margin the distance to the half
line; on it, an exact witness mode is produced (the squared angle
being transcendental, rational and angle parts must match separately).
"""

from fractions import Fraction

from qhcalc import model_symbols as ms
from qhcalc.a_spaces import Tower

t = Tower(2, (1, 1, 1), 1, (1, 1))
lap = ms.model_laplacian(t)

print("principal symbol is a sum of squares; boundary family diagonal.")
for label, (re0, re2, im) in [("-1", (-1, 0, 0)), ("i", (0, 0, 1)),
                              ("-3+2i", (-3, 0, 2))]:
    cert = ms.fully_elliptic_check(lap, re0, re2, im, N=8)
    print(f"lambda = {label:6s} fully elliptic: {cert['fully_elliptic']}, "
          f"margin {cert['min_singular_value']:.12g}")

for label, (re0, re2, im) in [("0", (0, 0, 0)), ("4pi^2", (0, 4, 0))]:
    r = ms.resolvent_model_check(t, re0, re2, im, N=8)
    print(f"lambda = {label:6s} rejected; witness {r['witness']}")

print("\nlifted basis fields at the deepest front face:")
for kind in ("x", "y", "z", "w"):
    terms = ms.lift_vf(t, kind, "z")
    print(f"  {kind}-generator -> boundary part "
          f"{ms.format_vf(ms.boundary_part(terms))}, "
          f"{len(terms) - 1} corrections with positive boundary power")
print("transversal to the lifted diagonal:", ms.transversality_check(t))
