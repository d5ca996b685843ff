"""Batch front end: construction, verification and query subcommands.

All reports are deterministic byte for byte for identical inputs; exit
code 0 on success, 1 on domain errors (invalid towers, integrability
failures, rejected spectral parameters), 2 on usage errors.  Rationals
are serialized as "n/d" strings throughout.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .tower import Tower, require_depth_2

if TYPE_CHECKING:
    from . import model_symbols as ms
    from . import op_calculus as oc

USAGE_ERROR = 2
DOMAIN_ERROR = 1


class UsageError(Exception):
    """Bad command-line input; reported in one line with exit code 2."""


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise UsageError(f"{path} is not JSON: {e}") from None


def _load_object(path: str, what: str, parse,
                 malformed=(TypeError, ValueError, ZeroDivisionError)):
    """parse(data) for a JSON object file; bad content is a usage error."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise UsageError(f"{path}: {what} is not a JSON object")
    try:
        return parse(data)
    except KeyError as e:
        raise UsageError(f"{path}: {what} needs key {e}") from None
    except malformed as e:
        raise UsageError(f"{path}: malformed {what}: {e}") from None


def _load_tower(path: str) -> Tower:
    # a well-typed but invalid tower raises ValueError: a domain error
    return _load_object(path, "tower config", Tower.from_json, TypeError)


def _rational(option: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{option} needs a rational number, got {text!r}") \
            from None


def _nonnegative(option: str, value: int) -> int:
    if value < 0:
        raise UsageError(f"{option} must be nonnegative, got {value}")
    return value


# Each command returns (exit code, report), the report a dict for JSON or
# a str for text or dot; ``main`` writes it.  Each imports the modules it
# runs, so a fresh process loads no more than its command needs.

def cmd_tower_validate(args):
    t = _load_tower(args.config)
    if args.format == "json":
        return 0, {"k": t.k, "a": list(t.orders), "b": t.b, "f": list(t.f),
                   "dim": t.dim, "valid": True}
    return 0, (f"tower depth {t.k}, orders {t.orders}, "
               f"dims (b={t.b}, f={t.f}), total dim {t.dim}: valid")


def cmd_space_double(args):
    from . import a_spaces as asp
    from . import corner_spaces as cs
    t = _load_tower(args.config)
    if args.format == "dot":
        return 0, _dot(t, "double")
    d = asp.double_space(t)
    pl, pr = d.proj_l, d.proj_r
    faces = d.faces
    data = {"faces": list(faces),
            "e_left": list(asp.exponent_vector(pl, faces)),
            "e_right": list(asp.exponent_vector(pr, faces)),
            "b_fibrations": bool(cs.is_b_fibration(pl)
                                 and cs.is_b_fibration(pr)),
            "diagonal_meets": sorted(d.space.psub_meets("diag"))}
    if args.format == "json":
        return 0, data
    return 0, "\n".join([
        f"double space faces: {', '.join(faces)}",
        f"left projection exponents:  {data['e_left']}",
        f"right projection exponents: {data['e_right']}",
        f"projections are b-fibrations: {data['b_fibrations']}",
        f"lifted diagonal meets: {', '.join(data['diagonal_meets'])}"])


def cmd_space_triple(args):
    t = _load_tower(args.config)
    if args.format == "dot":
        return 0, _dot(t, "triple")
    require_depth_2(t, "triple")
    from . import a_spaces as asp
    from . import corner_spaces as cs
    trip = asp.triple_space(t)
    bij = cs.isomorphic(trip.space, trip.commuted, incidence="within")
    data = {"faces": list(trip.space.face_names),
            "face_count": len(trip.space.faces),
            "projections_b_fibrations": [
                bool(cs.is_b_fibration(p)) for p in trip.projections],
            "constructions_isomorphic": bij is not None}
    if args.format == "json":
        return 0, data
    return 0, "\n".join([
        f"triple space: {data['face_count']} boundary hypersurfaces",
        "projections are b-fibrations: "
        + str(all(data["projections_b_fibrations"])),
        "symmetric and commuted constructions isomorphic: "
        + str(data["constructions_isomorphic"])])


def cmd_facemap_verify(args):
    from . import a_spaces as asp
    rep = asp.verify_facemaps(_load_tower(args.config))
    code = DOMAIN_ERROR if rep["mismatches"] else 0
    if args.format == "json":
        return code, rep
    lines = [f"{rep['tables']} tables, {len(rep['mismatches'])} mismatches"]
    for m in rep["mismatches"]:
        where = m.get("vector") or (f"stage {m['stage']} "
                                    f"projection {m['projection']}")
        lines.append(f"  {where} face {m['face']}: got {m['got']}, "
                     f"want {m['want']}")
    return code, "\n".join(lines)


def cmd_weights(args):
    t = _load_tower(args.config)
    count = _nonnegative("--sweep", args.sweep)
    require_depth_2(t, "weights")
    from . import densities as dn
    from . import index_algebra as ia
    gam = dn.gamma(t)
    dw = dn.double_weights(t)
    tw = dn.triple_weights(t)
    rng = random.Random(args.seed)
    sweep = _weight_sweep(t, rng, count)
    data = {"gamma": [str(g) for g in gam],
            "double": {"w_a0": ia.weights_to_json(dw.w_a0),
                       "w_a": ia.weights_to_json(dw.w_a),
                       "w_tilde": ia.weights_to_json(dw.w_tilde)},
            "triple": {"W_a0": ia.weights_to_json(tw.W_a0),
                       "W_a_adopted": ia.weights_to_json(tw.W_a),
                       "W_a_displayed":
                           ia.weights_to_json(dn.displayed_w_a(t))},
            "sign_discrepancy_note":
                "the adopted W_a follows the intermediate pullback-sum "
                "arithmetic and the closed-form composition cross-check; "
                "the usually displayed value differs in the V_z and F_z "
                "signs",
            "composition_sweep": sweep}
    if args.format == "json":
        return 0, data
    return 0, "\n".join([
        f"gamma weights: {', '.join(data['gamma'])}",
        f"double space w_a0:    {data['double']['w_a0']}",
        f"double space w_a:     {data['double']['w_a']}",
        f"double space w_tilde: {data['double']['w_tilde']}",
        f"triple space W_a0: {data['triple']['W_a0']}",
        dn.weight_discrepancy_report(t),
        f"composition sweep: {sweep['checked']} random families, "
        f"{sweep['failures']} closed-form mismatches (seed {args.seed})"])


def _weight_sweep(t: Tower, rng: random.Random, count: int) -> dict:
    from . import index_algebra as ia
    from . import op_calculus as oc

    def rand_set():
        n = rng.randint(0, 2)
        return ia.normalize([
            ia.term(Fraction(rng.randint(1, 5), rng.choice([1, 2])), 0,
                    rng.randint(0, 2)) for _ in range(n)])

    def rand_class():
        return oc.op_class(t, 0, **{f: rand_set() for f in oc.DOUBLE_FACES})

    checked = failures = 0
    for _ in range(count):
        P, Q = rand_class(), rand_class()
        try:
            R = oc.compose(P, Q)
        except oc.NonIntegrable:
            continue
        checked += 1
        if not ia.windowed_eq(R.family["ff_z"], oc.ffz_closed_form(P, Q),
                              Fraction(12), 8):
            failures += 1
    return {"checked": checked, "failures": failures}


def _load_class(t: Tower, path: str) -> oc.OperatorClass:
    from . import op_calculus as oc
    return _load_object(path, "operator class",
                        lambda data: oc.class_from_json(t, data))


def cmd_compose(args):
    from . import index_algebra as ia
    from . import op_calculus as oc
    t = _load_tower(args.config)
    P = _load_class(t, args.P)
    Q = _load_class(t, args.Q)
    try:
        R = oc.compose(P, Q)
    except oc.NonIntegrable as e:
        raise ValueError("composition not integrable at: "
                         + ", ".join(e.faces)) from None
    out = oc.class_to_json(R)
    out["ff_z_closed_form"] = ia.indexset_to_json(oc.ffz_closed_form(P, Q))
    return 0, out


def cmd_act(args):
    from . import index_algebra as ia
    from . import op_calculus as oc
    t = _load_tower(args.config)
    P = _load_class(t, args.P)
    I = _load_object(args.I, "index set file",
                     lambda data: ia.indexset_from_json(data["set"]))
    try:
        out = oc.act(P, I)
    except oc.NonIntegrable as e:
        raise ValueError("action not integrable at: "
                         + ", ".join(e.faces)) from None
    return 0, {"set": ia.indexset_to_json(out)}


def cmd_parametrix(args):
    from . import op_calculus as oc
    t = _load_tower(args.config)
    m = _rational("-m", args.m)
    led = oc.parametrix_ledger(t, m)
    ok = led.verify()
    code = 0 if ok else DOMAIN_ERROR
    if args.format == "json":
        return code, {"order": str(m), "verified": ok,
                      "steps": oc.ledger_to_json(led)}
    lines = [f"parametrix ledger for order {args.m}: "
             f"{'verified' if ok else 'FAILED'}"]
    for i, st in enumerate(led.steps, 1):
        lines.append(f"  step {i}: {st.description}")
        lines.append(f"    rule: {st.rule}; output: {st.output}")
        for okc, what in st.checks:
            lines.append(f"    check [{'ok' if okc else 'FAIL'}] {what}")
    return code, "\n".join(lines)


def _load_operator(t: Tower, path: str) -> ms.ADiffOp:
    from . import index_algebra as ia
    from . import model_symbols as ms
    b, f1, f2 = ms.model_dims(t)
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise UsageError(f"{path}: an operator file is a JSON object "
                         "with a list 'terms'")
    nm = b + f1 + f2
    terms = {}
    for k, item in enumerate(data["terms"]):
        spec = item.get("coeff", {}) if isinstance(item, dict) else None
        if not isinstance(spec, dict):
            raise UsageError(f"{path}: each term and its 'coeff' is a JSON "
                             "object")
        try:
            mu = (item.get("alpha", 0), tuple(item.get("I", [0] * b)),
                  tuple(item.get("J", [0] * f1)),
                  tuple(item.get("K", [0] * f2)))
            if any(type(e) is not int or e < 0  # bools and floats too
                   for e in (mu[0], *mu[1], *mu[2], *mu[3])):
                raise TypeError(f"multi-index {mu} is not all nonnegative "
                                "integers")
            xp = spec.get("x_poly", [[0, "1", "0"]])
            trig = spec.get("trig", [{"modes": [0] * nm, "re": "1",
                                      "im": "0"}])
            c = ms.Coeff()
            for n, restr, imstr in xp:
                if type(n) is not int or n < 0:
                    raise TypeError("x powers must be nonnegative "
                                    f"integers, got {n!r}")
                base = ms.Coeff({(n, (0,) * nm, 0): ia.cx(restr, imstr)})
                for tg in trig:
                    modes = tuple(tg["modes"])
                    if any(type(q) is not int for q in modes):
                        raise TypeError("trig modes must be integers, "
                                        f"got {list(modes)}")
                    tc = ms.Coeff({(0, modes, 0):
                                   ia.cx(tg.get("re", 1), tg.get("im", 0))})
                    c = c + base * tc
        except (TypeError, ValueError, KeyError, AttributeError,
                ZeroDivisionError) as e:
            raise UsageError(f"{path}: term {k} is malformed: {e}") from None
        terms[mu] = terms.get(mu, ms.Coeff()) + c
    return ms.make_op(t, terms)


def cmd_normal_family(args):
    from . import index_algebra as ia
    from . import model_symbols as ms
    t = _load_tower(args.config)
    if args.operator:
        P = _load_operator(t, args.operator)
    else:
        P = ms.model_laplacian(t)
    point = tuple(_rational("--point", x) for x in (
        args.point.split(",") if args.point else ["0"] * (t.b + t.f[0])))
    mu = tuple(_rational("--mu", x) for x in (
        args.mu.split(",") if args.mu else ["0"] * (1 + t.b + t.f[0])))
    M = ms.normal_family_matrix(P, point, mu, _nonnegative("--N", args.N))
    entries = {}
    for (r, c), v in sorted(M.entries.items(), key=repr):
        key = f"{list(r)}|{list(c)}"
        if isinstance(v, ms.PiPoly):
            entries[key] = {str(k): [ia._frac_str(vv.re), ia._frac_str(vv.im)]
                            for k, vv in sorted(v.items())}
        else:
            entries[key] = [f"{v.real:.17g}", f"{v.imag:.17g}"]
    return 0, {"dim": M.dim(), "exact": M.exact,
               "diagonal": M.is_diagonal(), "entries": entries}


def parse_lambda(text: str):
    """Spectral parameter: rational, rational i, and rational pi^2 parts.

    Accepts forms like -1, i, -3+2i, 4pi^2, 1/2-3/4i, 1+2pi^2.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty spectral parameter")
    re0 = im = re2 = Fraction(0)

    def frac(txt):
        if txt in ("", "+"):
            return Fraction(1)
        if txt == "-":
            return Fraction(-1)
        return Fraction(txt)

    try:
        for tok in re.findall(r"[+-]?[^+-]+", s):
            if tok.endswith("pi^2"):
                re2 += frac(tok[:-4])
            elif tok.endswith("i"):
                im += frac(tok[:-1])
            else:
                re0 += Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in spectral parameter {text!r}") \
            from None
    return re0, re2, im


def cmd_resolvent_check(args):
    from . import model_symbols as ms
    t = _load_tower(args.config)
    try:
        re0, re2, im = parse_lambda(args.lam)
    except ValueError as e:
        raise UsageError(str(e)) from None
    radius = _rational("--radius", args.radius)
    step = _rational("--step", args.step)
    if step <= 0 or radius < 0:
        raise UsageError("--step must be positive and --radius nonnegative")
    r = ms.resolvent_model_check(t, re0, re2, im,
                                 N=_nonnegative("--N", args.N),
                                 radius=radius, step=step)
    if r["invertible"]:
        return 0, f"fully elliptic; margin {r['margin']:.12g}"
    w = r["witness"]
    reason = ("margin below spectral distance" if "margin" in r else
              "spectral parameter on the real half-line [0, inf); no "
              "witness mode within the truncation and grid")
    return DOMAIN_ERROR, (
        "rejected: spectral parameter on the model spectrum; "
        f"witness |mu|^2 = {w['mu_norm_sq']}, |k|^2 = {w['k_norm_sq']}"
        if w else f"rejected: {reason}")


def _dot(t: Tower, which: str) -> str:
    """Face lattice; the triple space is its symmetric replay alone."""
    if which == "triple":
        require_depth_2(t, "triple")
    from . import a_spaces as asp
    from . import corner_spaces as cs
    if which == "double":
        space = asp.double_space(t).space
    else:
        space, _ = cs.replay(asp.symmetric_triple_seq(t))
    return cs.export_dot(space, f"{which} space")


def cmd_export_dot(args):
    return 0, _dot(_load_tower(args.config), args.space)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qhcalc",
        description="bookkeeping calculus for quasihomogeneous blowups "
                    "and multi-fibred boundary operator classes")
    sub = ap.add_subparsers(dest="command")

    def common(p, formats=()):
        """Config and output options; --format only where it is written."""
        p.add_argument("-c", "--config", required=True,
                       help="tower config JSON")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("-o", "--output", help="write the report here")

    p = sub.add_parser("tower", help="tower configuration commands")
    tsub = p.add_subparsers(dest="tower_cmd")
    pv = tsub.add_parser("validate")
    common(pv, ("text", "json"))
    pv.set_defaults(func=cmd_tower_validate)

    p = sub.add_parser("space", help="space constructions")
    ssub = p.add_subparsers(dest="space_cmd")
    pd = ssub.add_parser("double")
    common(pd, ("text", "json", "dot"))
    pd.set_defaults(func=cmd_space_double)
    pt = ssub.add_parser("triple")
    common(pt, ("text", "json", "dot"))
    pt.set_defaults(func=cmd_space_triple)

    p = sub.add_parser("facemap", help="face table verification")
    fsub = p.add_subparsers(dest="facemap_cmd")
    pf = fsub.add_parser("verify")
    common(pf, ("text", "json"))
    pf.set_defaults(func=cmd_facemap_verify)

    p = sub.add_parser("weights", help="density weight tables and sweep")
    common(p, ("text", "json"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep", type=int, default=25)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("compose", help="compose two operator classes")
    common(p)
    p.add_argument("-P", required=True)
    p.add_argument("-Q", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("act", help="apply a class to an index set")
    common(p)
    p.add_argument("-P", required=True)
    p.add_argument("-I", required=True)
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("parametrix", help="remainder ledger")
    common(p, ("text", "json"))
    p.add_argument("-m", default="2")
    p.set_defaults(func=cmd_parametrix)

    p = sub.add_parser("normal-family", help="truncated fibre-mode matrix")
    common(p)
    p.add_argument("-O", "--operator")
    p.add_argument("--point")
    p.add_argument("--mu")
    p.add_argument("--N", type=int, default=8)
    p.set_defaults(func=cmd_normal_family)

    p = sub.add_parser("resolvent-check", help="model invertibility margin")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--radius", default="10")
    p.add_argument("--step", default="1/2")
    p.set_defaults(func=cmd_resolvent_check)

    p = sub.add_parser("export-dot", help="face lattice graph")
    common(p)
    p.add_argument("--space", choices=["double", "triple"], default="double")
    p.set_defaults(func=cmd_export_dot)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        ap.print_help()
        return USAGE_ERROR
    try:
        code, report = func(args)
    except OSError as e:
        print(f"cannot read {e.filename}", file=sys.stderr)
        return USAGE_ERROR
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return USAGE_ERROR
    except ValueError as e:     # BlowupError and RewriteError included
        print(str(e), file=sys.stderr)
        return DOMAIN_ERROR
    if not isinstance(report, str):
        report = json.dumps(report, indent=2, sort_keys=True)
    text = report if report.endswith("\n") else report + "\n"
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(f"cannot write {args.output}: {e.strerror}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
