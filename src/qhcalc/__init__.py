"""qhcalc: bookkeeping calculus for quasihomogeneous blowups.

Subpackages by concern:

* tower: towers of boundary fibrations, reductions, face names and rules;
* index_algebra: exact index sets, families, weight vectors, pullback
  and pushforward transforms;
* corner_spaces: combinatorial corner spaces, quasihomogeneous blowups,
  b-maps and exponent matrices, blowup commutation rewrites;
* a_spaces: double and triple spaces, the verifier of the closed rules,
  coordinate-change admissibility (re-exports ``tower``);
* densities: closed-form weight vectors on the double and triple spaces;
* op_calculus: operator classes, composition and mapping rules,
  parametrix remainder ledger, compactness thresholds;
* model_symbols: exact model operators on flat-torus fibres, symbol and
  boundary-family checks, spectral margins (the one numpy user);
* cli: batch front end.

``import qhcalc`` loads no submodule: each loads on first access
(``qhcalc.Tower``, ``qhcalc.a_spaces``, or an import of it), and a
module loads only what its callers reach.  So ``tower validate`` loads
``cli`` and ``tower``; ``act``, ``compose`` and ``parametrix`` add
``index_algebra`` and ``op_calculus``, and ``densities`` past the depth
and integrability checks, as ``weights`` does; the corner engine loads
for the space commands and ``facemap verify`` alone; the model-operator
commands add ``model_symbols``, which loads numpy only at depth 2.
"""

from importlib import import_module

_SUBMODULES = ("a_spaces", "cli", "corner_spaces", "densities",
               "index_algebra", "model_symbols", "op_calculus", "tower")

__all__ = ["Tower", *_SUBMODULES]

__version__ = "0.1.0"


def __getattr__(name):
    if name == "Tower":
        return import_module(".tower", __name__).Tower
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
