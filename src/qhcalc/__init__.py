"""qhcalc: bookkeeping calculus for quasihomogeneous blowups.

Subpackages by concern:

* index_algebra: exact index sets, families, weight vectors, pullback
  and pushforward transforms;
* corner_spaces: combinatorial corner spaces, quasihomogeneous blowups,
  b-maps and exponent matrices, blowup commutation rewrites;
* a_spaces: towers of boundary fibrations, double and triple spaces,
  projection face tables, coordinate-change admissibility;
* densities: density weight vectors on the double and triple spaces;
* op_calculus: operator classes, composition and mapping rules,
  parametrix remainder ledger, compactness thresholds;
* model_symbols: exact model operators on flat-torus fibres, symbol and
  boundary-family checks, spectral margins (the one numpy user);
* cli: batch front end.  It and model_symbols load on demand.
"""

from . import a_spaces, corner_spaces, densities, index_algebra, op_calculus
from .a_spaces import Tower

__all__ = ["Tower", "a_spaces", "cli", "corner_spaces", "densities",
           "index_algebra", "model_symbols", "op_calculus"]

__version__ = "0.1.0"
