"""Seeded `compose` and `act` probe: an answer digest and the warm time.

Draws 3,000 pairs of depth-2 operator classes and 500 (class, input set)
pairs over the pool of 576 towers that the `calculus` workload uses.
Half of the compose pairs draw their face sets as the workload does
(up to three real terms, denominators 1-3, log powers 0-3); the other
half draw each face set among the empty set, the smooth set, and sets
with integer or half-integer imaginary parts.  Run it from the
repository root on two trees to check that they give the same answers:

    PYTHONPATH=src python tools/compose_probe.py

It prints one JSON line.  `integrable` counts the compose pairs that
passed the integrability checks.  `digest` is a SHA-256 over every
answer in order: the JSON class of each composite and the JSON index
set of each image, or the faces a call was rejected at.  The first pass
runs cold and gives the digest; `warm_s` is the least wall time of the
calls alone over three more passes, with the weights of every tower
cached.
"""

import argparse
import hashlib
import json
import random
import time
from fractions import Fraction

from qhcalc import index_algebra as ia
from qhcalc import op_calculus as oc
from qhcalc.tower import Tower

COMPOSES, ACTS, WARM_PASSES = 3000, 500, 3
POOL = [Tower(2, (1, a1, a2), b, (f1, f2))
        for a1 in range(1, 4) for a2 in range(1, 4)
        for b in range(4) for f1 in range(4) for f2 in range(4)]


def _terms(rng, n, ims):
    return ia.normalize([
        ia.term(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])),
                rng.choice(ims), rng.randint(0, 3)) for _ in range(n)])


def bench_set(rng):
    return _terms(rng, rng.randint(0, 3), (0,))


def edge_set(rng):
    kind = rng.randrange(4)
    if kind < 2:
        return (ia.EMPTY, ia.SMOOTH)[kind]
    im = rng.choice((1, -1)) * (1 if kind == 2 else Fraction(1, 2))
    return _terms(rng, rng.randint(1, 3), (0, im))


def rand_class(rng, t, draw):
    return oc.op_class(t, Fraction(rng.randint(-4, 4), rng.choice([1, 2])),
                       **{f: draw(rng) for f in oc.DOUBLE_FACES})


def calls(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for n in range(COMPOSES):
        t, draw = rng.choice(POOL), (bench_set, edge_set)[n % 2]
        out.append((oc.compose, rand_class(rng, t, draw),
                    rand_class(rng, t, draw)))
    for n in range(ACTS):
        t, draw = rng.choice(POOL), (bench_set, edge_set)[n % 2]
        out.append((oc.act, rand_class(rng, t, draw), draw(rng)))
    return out


def run(work: list):
    """Each call's answer, or the faces it was rejected at, and the time
    spent in the calls."""
    answers, spent = [], 0.0
    for fn, *args in work:
        t0 = time.perf_counter()
        try:
            answers.append(fn(*args))
        except oc.NonIntegrable as e:
            answers.append(e.faces)
        spent += time.perf_counter() - t0
    return answers, spent


def encode(answer) -> str:
    if isinstance(answer, oc.OperatorClass):
        return json.dumps(oc.class_to_json(answer), sort_keys=True)
    if isinstance(answer, ia.IndexSet):
        return json.dumps(ia.indexset_to_json(answer))
    return json.dumps(list(answer))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=31)
    work = calls(ap.parse_args(argv).seed)
    answers, cold_s = run(work)
    digest = hashlib.sha256()
    for a in answers:
        digest.update(encode(a).encode() + b"\n")
    warm_s = min(run(work)[1] for _ in range(WARM_PASSES))
    print(json.dumps({
        "composes": COMPOSES, "acts": ACTS,
        "integrable": sum(isinstance(a, oc.OperatorClass) for a in answers),
        "digest": digest.hexdigest(),
        "cold_s": round(cold_s, 3), "warm_s": round(warm_s, 3)}))


if __name__ == "__main__":
    main()
