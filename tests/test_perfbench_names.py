"""The benchmark's reads of the package: every ``qhcalc`` name that a
``perfbench`` module imports, reads through an import alias or traces by
``spans.LAYERS`` must resolve.  The modules are parsed, not imported, so
nothing of the benchmark runs here.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _chain(node):
    """["a", "b", "c"] of the expression a.b.c, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _scope_reads(scope, aliases):
    """Dotted qhcalc names read in one scope; an import inside it binds
    its alias for this scope only."""
    aliases = dict(aliases)
    nodes = list(ast.walk(scope)) if not isinstance(scope, ast.Module) \
        else scope.body
    reads = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "qhcalc":
            for a in node.names:
                reads.add(f"{node.module}.{a.name}")
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "qhcalc":
                    # "import qhcalc.cli" binds qhcalc itself
                    reads.add(a.name)
                    aliases[a.asname or "qhcalc"] = \
                        a.name if a.asname else "qhcalc"
    for node in ast.walk(scope):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            reads.add(".".join([aliases[chain[0]]] + chain[1:]))
    return reads, aliases


def _benchmark_reads() -> dict:
    """Dotted name -> the perfbench file that reads it."""
    out = {}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads, aliases = _scope_reads(tree, {})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads |= _scope_reads(node, aliases)[0]
        out.update(dict.fromkeys(reads, path.name))
        if path.name == "spans.py":
            layers = next(ast.literal_eval(n.value) for n in tree.body
                          if isinstance(n, ast.Assign)
                          and _chain(n.targets[0]) == ["LAYERS"])
            for mod, funcs in layers.items():
                full = mod if mod.startswith("numpy") else f"qhcalc.{mod}"
                out.update((f"{full}.{f}", "spans.py LAYERS") for f in funcs)
    return out


def _resolve(dotted: str):
    parts = dotted.split(".")
    for n in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:n]))
        except ModuleNotFoundError:
            continue
        for attr in parts[n:]:
            # spans patches a traced method in the class's own namespace
            obj = (obj.__dict__[attr] if isinstance(obj, type)
                   else getattr(obj, attr))
        return obj
    raise ModuleNotFoundError(dotted)


READS = _benchmark_reads()


def test_collector_sees_every_kind_of_read():
    # guards the parser: an alias read, a from-import, a traced function
    # and a traced method
    assert {"qhcalc.op_calculus.DOUBLE_FACES", "qhcalc.a_spaces.Tower",
            "qhcalc.model_symbols.laplacian_spectrum_min_distance",
            "qhcalc.index_algebra.closure_window", "qhcalc.cli.main",
            "qhcalc.a_spaces.triple_projection_tables",
            "qhcalc.corner_spaces.Space.separated_by"} <= set(READS)


@pytest.mark.parametrize("dotted", sorted(READS))
def test_benchmark_name_resolves(dotted):
    try:
        _resolve(dotted)
    except (AttributeError, KeyError, ModuleNotFoundError) as e:
        pytest.fail(f"{READS[dotted]} reads {dotted}, which is gone: {e!r}")
