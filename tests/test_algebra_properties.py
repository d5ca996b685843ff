"""Property tests: the sparse Gaussian-rational algebra and indexed BMaps.

`Coeff` and `PiPoly` are checked against a plain-dict polynomial kept
here, whose values are (re, im) pairs of fractions and whose zero terms
are dropped only at the end.  BMaps are checked against dense integer
matrices: `exponent`, `face_map` and `matrix` against the entries,
`compose` against the matrix product.  Face names are not in sorted
order, so a row kept in position order would show.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc import corner_spaces as cs
from qhcalc import model_symbols as ms
from qhcalc.index_algebra import cx

PROPS = settings(max_examples=200, deadline=None, derandomize=True,
                 database=None)


# -- reference polynomial ---------------------------------------------------

def ref_add(a, b):
    out = {}
    for k, (re, im) in list(a.items()) + list(b.items()):
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + re, i0 + im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def ref_mul(a, b, key_add):
    out = {}
    for k1, (r1, i1) in a.items():
        for k2, (r2, i2) in b.items():
            k = key_add(k1, k2)
            r0, i0 = out.get(k, (0, 0))
            out[k] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return {k: v for k, v in out.items() if v != (0, 0)}


def coeff_key_add(k1, k2):
    return (k1[0] + k2[0], tuple(a + b for a, b in zip(k1[1], k2[1])),
            k1[2] + k2[2])


def as_poly(cls, ref):
    return cls({k: cx(re, im) for k, (re, im) in ref.items()})


# few values and keys, so that terms collide and sums cancel
HALVES = (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)
VALUES = st.tuples(st.sampled_from(HALVES),
                   st.sampled_from((-1, 0, 1))).filter(lambda v: v != (0, 0))
COEFF_KEYS = st.tuples(st.integers(0, 2),
                       st.tuples(*[st.integers(-1, 1)] * 3),
                       st.integers(0, 2))
COEFFS = st.dictionaries(COEFF_KEYS, VALUES, max_size=6)
PIPOLYS = st.dictionaries(st.integers(0, 3), VALUES, max_size=4)


def _check(cls, a, b, key_add):
    A, B = as_poly(cls, a), as_poly(cls, b)
    for got, want in ((A + B, ref_add(a, b)),
                      (A * B, ref_mul(a, b, key_add))):
        assert type(got) is cls
        assert got == as_poly(cls, want)
    assert A == as_poly(cls, a) and B == as_poly(cls, b)


@PROPS
@given(COEFFS, COEFFS)
def test_coeff_add_mul_match_reference(a, b):
    _check(ms.Coeff, a, b, coeff_key_add)


@PROPS
@given(PIPOLYS, PIPOLYS)
def test_pipoly_add_mul_match_reference(a, b):
    _check(ms.PiPoly, a, b, lambda k1, k2: k1 + k2)


# -- dense reference for b-maps ---------------------------------------------

NAMES = {"dom": ("g3", "g1", "g4", "g0", "g2"),
         "mid": ("m2", "m0", "m3", "m1"),
         "cod": ("h1", "h4", "h0", "h3", "h2")}


def _space(kind, n):
    return cs.product_space(n, {0: 1}, name=kind,
                            face_names=NAMES[kind][:n])


@st.composite
def dense(draw, rows, cols):
    """Integer matrix with mostly zero entries."""
    return [[draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3)))
             for _ in range(cols)] for _ in range(rows)]


@st.composite
def bmap_chain(draw):
    """Two composable random BMaps and their dense matrices."""
    n, m, k = (draw(st.integers(1, len(NAMES[x])))
               for x in ("dom", "mid", "cod"))
    spaces = _space("dom", n), _space("mid", m), _space("cod", k)
    maps = []
    for (dom, cod), (r, c) in zip(((0, 1), (1, 2)), ((n, m), (m, k))):
        D = draw(dense(r, c))
        order = draw(st.permutations(range(c)))
        entries = [(spaces[dom].face_names[i], spaces[cod].face_names[j],
                    D[i][j]) for i in range(r) for j in order]
        maps.append((cs.bmap_from_entries(spaces[dom], spaces[cod], entries),
                     D, entries))
    return maps


def _check_against_dense(f, D):
    assert f.matrix() == D
    for g, row in zip(f.domain_faces, D):
        assert f.face_map(g) == {h for h, e in zip(f.codomain_faces, row)
                                 if e}
        for h, e in zip(f.codomain_faces, row):
            assert f.exponent(g, h) == e


@PROPS
@given(bmap_chain())
def test_bmap_lookups_and_compose_match_dense_product(chain):
    (f, F, f_entries), (g, G, _) = chain
    _check_against_dense(f, F)
    # rows keep the order the entries were given in
    assert f.exponents == tuple(x for x in f_entries if x[2])
    prod = [[sum(F[i][j] * G[j][l] for j in range(len(G)))
             for l in range(len(G[0]))] for i in range(len(F))]
    fg = cs.compose(f, g)
    _check_against_dense(fg, prod)
    # composite rows run over the domain faces, each sorted by face name
    assert fg.exponents == tuple(
        (a, h, e) for a, row in zip(f.domain_faces, prod)
        for h, e in sorted(zip(g.codomain_faces, row)) if e)
