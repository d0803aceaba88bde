import hashlib
import json
from itertools import combinations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cocycle_basis, nontrivial_class_representative
from entriv import steenrod_cochains
from entriv.core_algebra import GradedAbelianGroup, rank_mod_p
from entriv.rng import CounterRng
from entriv.steenrod_cochains import (Cochain, SimplicialSet, _cut_blocks, _cut_faces,
                                      coboundary, cohomology_class, cup_i, h_dim,
                                      rp2_model, sphere_model, sq, triviality_witness)


def random_cochain(sset, degree, rng):
    return Cochain.create(degree, [nm for nm in sset.names(degree) if rng.below(2)])


class TestModels:
    def test_sphere_counts(self):
        for n in (1, 2, 3, 4):
            m = sphere_model(n)
            assert m.names(0) == ("v",) and m.names(n) == ("t",)
            assert all(not m.names(d) for d in range(1, n))

    def test_circle_faces(self):
        m = sphere_model(1)
        assert m.face(((), "t"), 0) == ((), "v")
        assert m.face(((), "t"), 1) == ((), "v")

    def test_sphere_homology(self):
        for n in (1, 2, 3):
            h = sphere_model(n).homology("F2")
            assert h.component(0) == (1, ()) and h.component(n) == (1, ())

    def test_rp2_homology(self):
        m = rp2_model()
        hz = m.homology("Z")
        assert hz.component(0) == (1, ())
        assert hz.component(1) == (0, (2,))
        assert hz.component(2) == (0, ())
        h2 = m.homology("F2")
        assert [h2.component(d)[0] for d in (0, 1, 2)] == [1, 1, 1]

    def test_validation_rejects_missing_faces(self):
        with pytest.raises(ValueError):
            SimplicialSet.create({0: ["v"], 1: [("e")]}, {"e": [("v", ())]})

    @pytest.mark.parametrize("simplices, faces, message", [
        ({0: ["a", "b"], 1: ["e", "e"]}, {"e": [("b", ()), ("a", ())]},
         "simplex e is listed twice"),
        ({0: ["a"], 1: ["a"]}, {"a": [("a", ()), ("a", ())]}, "simplex a is listed twice"),
        ({0: ["v"]}, {"ghost": [("v", ()), ("v", ())]},
         "faces given for ghost, which is not a simplex"),
    ], ids=["name twice in a degree", "name in two degrees", "faces of no simplex"])
    def test_validation_rejects_malformed_names(self, simplices, faces, message):
        # the incidence table is keyed by name, so a name must be one simplex
        with pytest.raises(ValueError, match=message):
            SimplicialSet.create(simplices, faces)


def _vertex_list(ns):
    """The vertices of a normal-form simplex of rp2_model, whose nondegenerate
    simplices are named by their vertices: s_j repeats vertex j, applied from
    the right of the word."""
    word, base = ns
    verts = list(base)
    for j in reversed(word):
        verts.insert(j, verts[j])
    return verts


_RP2 = rp2_model()
_RP2_SIMPLICES = [name for _, names in _RP2.simplices for name in names]


class TestNormalForm:
    """Random face and degeneracy words on rp2_model against a vertex-list
    model, in which s_j repeats vertex j and d_i deletes vertex i."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_RP2_SIMPLICES),
           st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=10))
    def test_words_match_the_vertex_model(self, name, ops):
        ns, verts = ((), name), list(name)
        for is_face, index in ops:
            k = index % len(verts)  # len(verts) = dimension + 1
            if is_face and len(verts) > 1:
                ns, verts = _RP2.face(ns, k), verts[:k] + verts[k + 1:]
            else:
                ns, verts = _RP2.degeneracy(ns, k), verts[:k + 1] + verts[k:]
            word = ns[0]
            assert all(a > b for a, b in zip(word, word[1:]))
            assert _vertex_list(ns) == verts


class TestCupI:
    def test_cup0_on_circle_vanishes_upstairs(self):
        m = sphere_model(1)
        x = Cochain.create(1, ["t"])
        assert cup_i(m, x, x, 0).degree == 2
        assert cup_i(m, x, x, 0).is_zero()  # no 2-simplices at all

    def test_cup2_on_two_sphere(self):
        m = sphere_model(2)
        x = Cochain.create(2, ["t"])
        z = cup_i(m, x, x, 2)
        assert z.support == frozenset({"t"})  # pinned cochain-level output

    def test_zero_cochain_absorbs(self):
        m = rp2_model()
        x = random_cochain(m, 1, CounterRng(1))
        assert cup_i(m, x, Cochain.create(1, ()), 1).is_zero()

    def test_rejects_excess_i(self):
        m = rp2_model()
        x = Cochain.create(1, ["12"])
        with pytest.raises(ValueError):
            cup_i(m, x, x, 2)

    @pytest.mark.parametrize("names, stray", [(["zz", "12"], "zz"), (["12", "1"], "1")])
    def test_support_off_the_model_is_rejected(self, names, stray):
        # a name that is no simplex, or a simplex of another degree
        m = rp2_model()
        x, y = Cochain.create(1, names), Cochain.create(1, ["12"])
        message = f"cochain support '{stray}' is not a 1-simplex"
        for read in (lambda: cup_i(m, x, y, 0), lambda: cup_i(m, y, x, 1),
                     lambda: coboundary(m, x), lambda: cohomology_class(m, x),
                     lambda: sq(m, 1, x)):
            with pytest.raises(ValueError, match=message):
                read()

    @pytest.mark.parametrize("model_name", ["s1", "s2", "s3", "rp2"])
    def test_coboundary_identity(self, model_name):
        model = {"s1": sphere_model(1), "s2": sphere_model(2),
                 "s3": sphere_model(3), "rp2": rp2_model()}[model_name]
        rng = CounterRng(5)
        top = model.top_dimension()
        for _ in range(150):
            r = rng.randint(0, top)
            s = rng.randint(0, top)
            i = rng.randint(0, min(r, s))
            x = random_cochain(model, r, rng)
            y = random_cochain(model, s, rng)
            lhs = coboundary(model, cup_i(model, x, y, i))
            rhs = (cup_i(model, x, coboundary(model, y), i)
                   + cup_i(model, coboundary(model, x), y, i))
            if i > 0:
                rhs = rhs + cup_i(model, x, y, i - 1) + cup_i(model, y, x, i - 1)
            assert lhs.support == rhs.support

    def test_commutativity_defect_is_cup1_coboundary(self):
        # for cocycles: delta(x u_1 y) = x u_0 y + y u_0 x
        m = rp2_model()
        x = nontrivial_class_representative(m, 1)
        lhs = coboundary(m, cup_i(m, x, x, 1))
        rhs = cup_i(m, x, x, 0) + cup_i(m, x, x, 0)
        assert lhs.support == rhs.support  # both vanish for x = y

    def test_cup0_associative_on_cocycles_up_to_coboundary(self):
        m = rp2_model()
        x = nontrivial_class_representative(m, 1)
        left = cup_i(m, cup_i(m, x, x, 0), x, 0)
        # degree 3 group is zero on a surface model: both associations vanish
        assert left.degree == 3 and left.is_zero()


def _boundary_of_simplex(n):
    """The boundary of the n-simplex on vertices 0..n; d_i drops vertex i."""
    verts = "0123456789"[: n + 1]
    simplices, faces = {}, {}
    for k in range(n):
        names = ["".join(c) for c in combinations(verts, k + 1)]
        simplices[k] = names
        if k:
            for nm in names:
                faces[nm] = [(nm[:i] + nm[i + 1:], ()) for i in range(k + 1)]
    return SimplicialSet.create(simplices, faces)


def _kernel_digest(model, seed):
    """sha256 of seeded coboundary and cup-i supports in every degree pair."""
    rng = CounterRng(seed)
    top = model.top_dimension()
    rows = []
    for p in range(top + 1):
        x = random_cochain(model, p, rng)
        rows.append(["d", p, sorted(coboundary(model, x).support)])
        for q in range(top + 1):
            y = random_cochain(model, q, rng)
            for i in range(min(p, q) + 1):
                rows.append(["cup", p, q, i, sorted(cup_i(model, x, y, i).support)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestKernelGolden:
    """Pinned cochain-level outputs of cup_i and coboundary: the interval
    formula fixes cochains, not just classes, so these must not move."""

    @pytest.mark.parametrize("model_name, seed, digest", [
        ("rp2", 0,
         "7218a951d4a4518dbde986a1210a1d10464bbf6e76306c4ac993e9163eb89118"),
        ("rp2", 7,
         "7c391b0d214029d27a10a211aed703f164ce0144c5fadb014455ff86fba990f0"),
        ("s3", 0,
         "9440ae768cc8adbc655008db2643c1e0b66934994b737eb9a4ee37df7635e449"),
        ("s3", 7,
         "1a574cd4e22f2ec62ee94c31a8d856cdc6e2a86da401ac15216c9b6215656856"),
        ("d5", 0,
         "b55f4e21d9fe358eed24d040d41419a98dc4bb9061b8341877ff1208a196a8c5"),
        ("d5", 7,
         "c2bdd6fc5538f12bf6700d72ef2886c8a6ca77be2c0ad6ca33fe8015987340a0"),
    ])
    def test_supports(self, model_name, seed, digest):
        model = {"rp2": rp2_model, "s3": lambda: sphere_model(3),
                 "d5": lambda: _boundary_of_simplex(5)}[model_name]()
        assert _kernel_digest(model, seed) == digest

    def test_boundary_of_simplex_is_a_sphere(self):
        model = _boundary_of_simplex(5)
        assert [len(model.names(k)) for k in range(5)] == [6, 15, 20, 15, 6]
        assert model.homology("F2").component(4) == (1, ())

    @pytest.mark.parametrize("k", range(2, 9))
    def test_boundary_of_simplex_has_the_homology_of_a_sphere(self, k):
        # the boundary of the k-simplex is S^(k-1): R in degrees 0 and k - 1
        model = _boundary_of_simplex(k)
        sphere = GradedAbelianGroup.create({0: (1, ()), k - 1: (1, ())})
        for ring in ("Z", "Q", "F2", "F3"):
            assert model.homology(ring) == sphere, ring


def _interval_formula(model, x, y, i):
    """x cup_i y summed over _cut_blocks, each face read off vertex_subface
    as the formula states it: a degenerate face counts as 0."""
    n = x.degree + y.degree - i
    support = set()
    for name in model.names(n):
        total = 0
        for evens, odds in _cut_blocks(n, i, x.degree, y.degree):
            even_word, even = model.vertex_subface(name, evens)
            odd_word, odd = model.vertex_subface(name, odds)
            if not even_word and not odd_word and even in x.support and odd in y.support:
                total ^= 1
        if total:
            support.add(name)
    return frozenset(support)


_CUT_MODELS = {"rp2": rp2_model, "s2": lambda: sphere_model(2),
               "s3": lambda: sphere_model(3), "s4": lambda: sphere_model(4),
               "d5": lambda: _boundary_of_simplex(5)}


class TestCutFaces:
    """cup_i reads a cut-face table that each model builds once per degree
    key; the sphere models have degenerate faces, which the table drops."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(_CUT_MODELS)), st.integers(0, 2 ** 32))
    def test_table_matches_the_interval_formula(self, model_name, seed):
        model = _CUT_MODELS[model_name]()
        rng = CounterRng(seed)
        top = model.top_dimension()
        cases = [(random_cochain(model, p, rng), random_cochain(model, q, rng), i)
                 for p in range(top + 1) for q in range(top + 1)
                 for i in range(min(p, q) + 1)]
        expected = [_interval_formula(model, x, y, i) for x, y, i in cases]
        for _ in ("fresh", "warm"):
            assert [cup_i(model, x, y, i).support for x, y, i in cases] == expected

    def test_repeated_product_reads_no_faces(self, monkeypatch):
        model = rp2_model()
        calls = []
        subface = SimplicialSet.vertex_subface
        monkeypatch.setattr(SimplicialSet, "vertex_subface",
                            lambda self, *args: calls.append(args) or subface(self, *args))
        rng = CounterRng(4)
        x, y = random_cochain(model, 1, rng), Cochain.create(1, model.names(1))
        first = cup_i(model, x, y, 0)
        assert calls
        calls.clear()
        assert cup_i(model, x, y, 0) == first
        cup_i(model, y, x, 0)  # other cochains of the same degrees
        assert not calls
        # another model builds its own table
        cup_i(rp2_model(), x, y, 0)
        assert calls

    def test_sphere_tables_keep_only_nondegenerate_faces(self):
        # on S^3 every face of t below degree 3 but the vertex is degenerate
        model = sphere_model(3)
        assert _cut_faces(model, 3, 0, 0, 3) == (("t", (("v", "t"),)),)
        assert _cut_faces(model, 3, 0, 3, 0) == (("t", (("t", "v"),)),)
        assert all(_cut_faces(model, 3, i, p, 3 + i - p) == ()
                   for i in range(3) for p in range(max(1, i), 3) if 3 + i - p < 3)


def _f2_digest(model, seed):
    """sha256 of cocycle bases, class representatives of the basis and of
    seeded cocycles, and every square of every basis cocycle."""
    rng = CounterRng(seed)
    rows = []
    for d in range(model.top_dimension() + 1):
        basis = cocycle_basis(model, d)
        rows.append(["basis", d, [sorted(x.support) for x in basis]])
        for x in basis:
            rows.append(["class", d, list(cohomology_class(model, x).representative)])
            for k in range(d + 1):
                rows.append(["sq", d, k, list(sq(model, k, x).representative)])
        for _ in range(4):
            z = Cochain.create(d, ())
            for x in basis:
                if rng.below(2):
                    z = z + x
            if d:
                z = z + coboundary(model, random_cochain(model, d - 1, rng))
            rows.append(["seeded", d, list(cohomology_class(model, z).representative)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _rp2_nerve():
    """The minimal RP^2, the 2-skeleton of the nerve of Z/2: d_0 e2 = d_2 e2
    = e1 and d_1 e2 = s_0 e0, so e1 is twice, with sign +1, in the boundary
    of e2, and the two faces of e1 cancel."""
    return SimplicialSet.create({0: ["e0"], 1: ["e1"], 2: ["e2"]},
                                {"e1": [("e0", ()), ("e0", ())],
                                 "e2": [("e1", ()), ("e0", (0,)), ("e1", ())]})


_F2_MODELS = {"rp2": rp2_model, "d4": lambda: _boundary_of_simplex(4),
              "d5": lambda: _boundary_of_simplex(5), "s1": lambda: sphere_model(1),
              "s2": lambda: sphere_model(2), "s3": lambda: sphere_model(3)}


class TestF2Golden:
    """Pinned cocycle bases, class representatives and squares: the F_2
    elimination fixes which cocycles and representatives come out."""

    @pytest.mark.parametrize("model_name, digest", [
        ("rp2",
         "f5d3e69b6c115b6ea1dc03b6dcdbdfafa02dcf7547fc3b425f75501aab76d1f3"),
        ("d4",
         "d6c52914f9992aea37ed6303b02b1431d05646f80b41e8ead5b8f5de89b63ed9"),
        ("d5",
         "ee035d3916c4a5f397ef14b409c6fbf074962f2b8da9f5158df9f1bd8428f6c7"),
        ("s1",
         "48a9165ba3ca00aa8bfb4522ba3c4b9354fe78f62d4cd3db83c416bf4f57adcb"),
        ("s2",
         "9f0bae89083d254527ab7fefb53f2b07d0e8859129e941524150956f1762c9b4"),
        ("s3",
         "1b3a5b9c5b7e56b1914afc2c547ce280aa43dbeb9fbfff6a4222ea7392d3d588"),
    ])
    def test_outputs(self, model_name, digest):
        assert _f2_digest(_F2_MODELS[model_name](), 3) == digest

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_F2_MODELS)), st.integers(1, 4), st.data())
    def test_class_ignores_coboundaries(self, model_name, degree, data):
        model = _F2_MODELS[model_name]()
        x = Cochain.create(degree, ())
        for z in cocycle_basis(model, degree):
            if data.draw(st.booleans()):
                x = x + z
        below = model.names(degree - 1)
        y = Cochain.create(degree - 1, [nm for nm in below if data.draw(st.booleans())])
        assert cohomology_class(model, x + coboundary(model, y)) == cohomology_class(model, x)

    @pytest.mark.parametrize("model_name", sorted(_F2_MODELS))
    def test_basis_size_is_the_kernel_dimension(self, model_name):
        model = _F2_MODELS[model_name]()
        boundary = dict(model.chain_complex().differentials)
        for d in range(model.top_dimension() + 1):
            above = boundary.get(d + 1)
            rank = rank_mod_p(above, 2) if above is not None else 0
            assert len(cocycle_basis(model, d)) == len(model.names(d)) - rank


@pytest.mark.parametrize("model", [rp2_model(), *map(sphere_model, (1, 2, 3, 4)),
                                   _boundary_of_simplex(4), _boundary_of_simplex(5),
                                   _rp2_nerve()],
                         ids=["rp2", "s1", "s2", "s3", "s4", "d4", "d5", "rp2_nerve"])
def test_cochain_classes_follow_universal_coefficients(model):
    """dim H^d(X; F_2) from cocycle bases equals the universal-coefficient
    reading of H_*(X; Z), which runs the Smith kernel: the free rank of H_d
    plus the even torsion orders of H_d and H_{d-1}."""
    integral = model.homology("Z")
    cocycles = [len(cocycle_basis(model, d)) for d in range(model.top_dimension() + 1)]
    for d, z in enumerate(cocycles):
        # the coboundaries of degree d are the image of delta_{d-1}, of rank
        # N_{d-1} - |Z^{d-1}|
        boundaries = len(model.names(d - 1)) - cocycles[d - 1] if d else 0
        free, torsion = integral.component(d)
        even = [t for t in torsion + integral.component(d - 1)[1] if t % 2 == 0]
        assert z - boundaries == free + len(even)


class TestIncidence:
    """Chains, coboundaries and the F_2 classes read one signed incidence
    table per degree, and the F_2 elimination runs once per degree."""

    @pytest.mark.parametrize("model_name", sorted(_F2_MODELS) + ["rp2_nerve"])
    def test_coboundary_is_the_face_sum(self, model_name):
        # (delta x)(sigma) = sum_i x(d_i sigma) mod 2, each face read through
        # SimplicialSet.face; a degenerate face counts 0
        model = {**_F2_MODELS, "rp2_nerve": _rp2_nerve}[model_name]()
        rng = CounterRng(11)
        for d in range(model.top_dimension() + 1):
            for _ in range(8):
                x = random_cochain(model, d, rng)
                expected = set()
                for name in model.names(d + 1):
                    faces = (model.face(((), name), i) for i in range(d + 2))
                    if sum(not word and base in x.support for word, base in faces) % 2:
                        expected.add(name)
                assert coboundary(model, x).support == expected

    def test_nerve_rp2_reduces_an_incidence_of_two(self):
        model = _rp2_nerve()
        assert model.incidence(0) == {"e0": {}}
        assert model.incidence(1) == {"e1": {"e2": 2}}
        hz = model.homology("Z")
        assert [hz.component(d) for d in (0, 1, 2)] == [(1, ()), (0, (2,)), (0, ())]
        assert [len(cocycle_basis(model, d)) for d in (0, 1, 2)] == [1, 1, 1]
        w = Cochain.create(1, ["e1"])
        assert coboundary(model, w).is_zero()
        square = sq(model, 1, w)
        assert square == cohomology_class(model, cup_i(model, w, w, 0))
        assert not square.is_zero()

    def test_each_degree_is_eliminated_once(self, monkeypatch):
        eliminated = []
        echelon = steenrod_cochains.echelon_mod_p
        monkeypatch.setattr(steenrod_cochains, "echelon_mod_p",
                            lambda rows, p: eliminated.append(len(rows)) or echelon(rows, p))
        model = _boundary_of_simplex(5)
        basis = cocycle_basis(model, 2)  # the 20 triangles' rows
        classes = [cohomology_class(model, x) for x in basis]  # the 15 edges' rows
        assert eliminated == [20, 15]
        assert cocycle_basis(model, 2) == basis
        assert [cohomology_class(model, x) for x in basis] == classes
        assert eliminated == [20, 15]
        fresh = _boundary_of_simplex(5)  # another model eliminates its own
        assert [cohomology_class(fresh, x) for x in cocycle_basis(fresh, 2)] == classes
        assert eliminated == [20, 15, 20, 15]


class TestSq:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_sq0_is_identity(self, n):
        m = sphere_model(n)
        gen = Cochain.create(n, ["t"])
        assert h_dim(m, n) == 1
        assert sq(m, 0, gen) == cohomology_class(m, gen)
        assert not sq(m, 0, gen).is_zero()

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_top_square_vanishes(self, n):
        m = sphere_model(n)
        gen = Cochain.create(n, ["t"])
        assert sq(m, n, gen).is_zero()
        assert h_dim(m, 2 * n) == 0

    def test_h_dim_computes_the_homology_once(self, monkeypatch):
        computed = []
        real = steenrod_cochains.homology
        monkeypatch.setattr(steenrod_cochains, "homology",
                            lambda c, ring: computed.append(ring) or real(c, ring))
        model = _boundary_of_simplex(8)  # a triangulated 7-sphere
        assert [h_dim(model, d) for d in range(9)] == [1, 0, 0, 0, 0, 0, 0, 1, 0]
        assert computed == ["F2"]
        assert h_dim(_boundary_of_simplex(8), 7) == 1 and computed == ["F2", "F2"]

    def test_square_into_an_empty_degree_builds_no_cuts(self):
        # x cup_57 x on S^63 lives in degree 69, which has no simplices;
        # its C(70, 58) cut sequences must not be enumerated
        m = sphere_model(63)
        assert sq(m, 6, Cochain.create(63, ["t"])).is_zero()

    def test_sq1_on_circle_class(self):
        m = sphere_model(1)
        gen = Cochain.create(1, ["t"])
        assert sq(m, 1, gen).is_zero()

    def test_beyond_degree_is_zero(self):
        m = sphere_model(2)
        gen = Cochain.create(2, ["t"])
        assert sq(m, 5, gen).is_zero()

    def test_rejects_non_cocycle(self):
        m = rp2_model()
        vertex = Cochain.create(0, ["1"])
        assert not coboundary(m, vertex).is_zero()
        with pytest.raises(ValueError):
            sq(m, 0, vertex)

    def test_rp2_classics(self):
        m = rp2_model()
        x = nontrivial_class_representative(m, 1)
        assert not sq(m, 1, x).is_zero()  # Sq^1 hits the top class
        square = cohomology_class(m, cup_i(m, x, x, 0))
        assert sq(m, 1, x) == square


class TestWitness:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_holds(self, n):
        report = triviality_witness(n)
        assert report.cochain_side_is_identity
        assert report.square_zero_side_value == 0
        assert report.not_trivial

