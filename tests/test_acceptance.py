"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are exact (integer / rational equality) throughout;
the time budgets are asserted as stated."""

import json
import pathlib
import time
from math import factorial

import pytest

from conftest import group_at, random_chain_complex, random_symseq, unit_seq
from entriv import perms
from entriv.cli import parse, run
from entriv.core_algebra import formality_splitting, homology
from entriv.euler_section import equivariance_test, random_configuration, section_eval
from entriv.extended_powers import (moore_complex, moore_identification,
                                    pushout_rank_check, transfer_cofiber_check,
                                    verify_ses)
from entriv.hochschild import GradedUnitalAlgebra, bar_hochschild, small_resolution_hh
from entriv.rep_theory import wreath_decomposition_check
from entriv.rng import CounterRng
from entriv.steenrod_cochains import (Cochain, coboundary, cohomology_class, cup_i,
                                      h_dim, rp2_model, sphere_model, sq)
from entriv.stunted_ktheory import adams_theta, ku_ses, nilpotence_witness, torsion_exponent
from entriv.sym_seq import (compose, compose_dimensions_raw, graded_characters,
                            monoidality_report, set_partitions)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _report(number, label, elapsed):
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s)  {label}")


def test_criterion_01_dyer_lashof_exactness():
    start = time.perf_counter()
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            window = (-(n + 2) * 2 * (p - 1) - 2, 4 * (p - 1) + 4)
            for which in ("first", "second"):
                report = verify_ses(p, n, which, window)
                assert report.passed, (p, n, which)
                assert all(b == a + c for _, a, b, c in report.table)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "extended-power sequences exact degreewise, p in {2,3,5,7}, n in 1..8", elapsed)


def test_criterion_02_pushout_square():
    start = time.perf_counter()
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            report = pushout_rank_check(p, n)
            assert report.passed, (p, n)
            assert report.kernel_truncated == report.kernel_wide
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "kernel equality of the vertical maps on the same grid", elapsed)


def test_criterion_03_moore_and_transfer():
    start = time.perf_counter()
    for p in (2, 3, 5):
        moore = moore_identification(p)
        assert moore.passed
        h = homology(moore_complex(p), f"F{p}")
        assert sorted(d for _, d in moore.basis) == h.degrees() == [-1, 0]
        transfer = transfer_cofiber_check(p, (-2, 6 * (p - 1) + 2))
        assert transfer.passed
        assert transfer.difference[0][1] == -1
    elapsed = time.perf_counter() - start
    _report(3, "Moore-spectrum and transfer identifications, p in {2,3,5}", elapsed)


def test_criterion_04_ku_exact_sequences():
    start = time.perf_counter()
    for p in (2, 3, 5):
        for n in range(2, 13):
            triple, cert = ku_ses(p, n)
            assert cert.passed, (p, n)
            assert triple.k == ((n - 2) // 2 if n % 2 == 0 else (n - 1) // 2)
            witness = nilpotence_witness(p, n)
            assert witness.detected == (n >= 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, "certified K-theory sequences with the parity exponent, n in 2..12", elapsed)


def test_criterion_05_theta_identity():
    start = time.perf_counter()
    for p in (2, 3, 5):
        for n in range(1, 11):
            assert adams_theta(n, p) == p ** (n - 1)
    elapsed = time.perf_counter() - start
    _report(5, "theta eigenvalue p^(n-1) exact, n <= 10, p in {2,3,5}", elapsed)


def test_criterion_06_steenrod_witness():
    start = time.perf_counter()
    models = {f"S{n}": sphere_model(n) for n in (1, 2, 3)}
    for n in (1, 2, 3):
        model = models[f"S{n}"]
        gen = Cochain.create(n, ["t"])
        assert h_dim(model, n) == 1
        assert sq(model, 0, gen) == cohomology_class(model, gen)
        assert not sq(model, 0, gen).is_zero()
    models["RP2"] = rp2_model()
    rng = CounterRng(101)
    for model in models.values():
        top = model.top_dimension()
        for _ in range(1000):
            r = rng.randint(0, top)
            s = rng.randint(0, top)
            i = rng.randint(0, min(r, s))
            x = Cochain.create(r, [nm for nm in model.names(r) if rng.below(2)])
            y = Cochain.create(s, [nm for nm in model.names(s) if rng.below(2)])
            lhs = coboundary(model, cup_i(model, x, y, i))
            rhs = (cup_i(model, x, coboundary(model, y), i)
                   + cup_i(model, coboundary(model, x), y, i))
            if i > 0:
                rhs = rhs + cup_i(model, x, y, i - 1) + cup_i(model, y, x, i - 1)
            assert lhs.support == rhs.support
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(6, "Sq^0 = id on sphere generators; cup-i coboundary identity x1000 per model", elapsed)


def test_criterion_07_symmetric_sequences():
    start = time.perf_counter()
    assert len(set_partitions(3)) == 5
    assert len(set_partitions(4)) == 15
    rng = CounterRng(103)
    unit = unit_seq(4)
    for trial in range(100):
        a = random_symseq(rng)
        assert compose(unit, a, 4) == a
        assert compose(a, unit_seq(4), 4) == a
        if trial % 10 == 0:  # associativity with characters is the heavy check
            b = random_symseq(rng)
            c = random_symseq(rng)
            left = compose(compose(a, b, 4), c, 4)
            right = compose(a, compose(b, c, 4), 4)
            for n in range(1, 5):
                assert graded_characters(left, n) == graded_characters(right, n)
        b = random_symseq(rng)
        ab = compose(a, b, 4)
        for n in range(1, 5):
            got = {d: ab.module(n, d).dim for d in ab.degrees(n)}
            assert got == compose_dimensions_raw(a, b, n)
        assert monoidality_report(a, b, 4).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, "unit/associativity laws, Bell counts, suspension monoidality (100 trials)", elapsed)


def test_criterion_08_wreath_decomposition():
    start = time.perf_counter()
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            report = wreath_decomposition_check(a, b)
            assert report.passed
            assert sum(size for _, size, *_ in report.classes) == \
                factorial(a) * factorial(b) ** a
    elapsed = time.perf_counter() - start
    _report(8, "restricted reduced-standard character splits over wreath subgroups", elapsed)


def test_criterion_09_euler_section():
    start = time.perf_counter()
    rng = CounterRng(107)
    failures = 0
    for _ in range(10_000):
        m = rng.randint(1, 4)
        t = rng.randint(2, 6)
        cfg = random_configuration(rng, m, t)
        value = section_eval(cfg)
        if value.is_zero():
            failures += 1
        if not equivariance_test(cfg, rng.permutation(t)).equal:
            failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(9, "10^4 exact configurations: section nonzero and equivariant", elapsed)


def test_criterion_10_hochschild_cross_oracle():
    start = time.perf_counter()
    for ring in ("Z", "F2", "F3", "Q"):
        for n in (1, 2, 3, 4):
            algebra = GradedUnitalAlgebra.square_zero(ring, n)
            bar = bar_hochschild(algebra, 6)
            small = small_resolution_hh(ring, n, 6)
            assert bar == small, (ring, n)
            assert group_at(bar, 0, 0) == (1, ())
            assert group_at(bar, 0, -n) == (1, ())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(10, "bar complex equals periodic resolution on s <= 6, four rings, n in 1..4", elapsed)


def test_criterion_11_formality_splitting():
    start = time.perf_counter()
    rng = CounterRng(109)
    for _ in range(100):
        cx = random_chain_complex(rng, max_degree=3, max_rank=6, entry_bound=9)
        minimal, certified = formality_splitting(cx)
        assert certified
        assert homology(minimal, "Z") == homology(cx, "Z")
    elapsed = time.perf_counter() - start
    _report(11, "minimal models certify on 100 random bounded complexes", elapsed)


def test_criterion_12_harness_determinism():
    start = time.perf_counter()
    manifest = str(ROOT / "manifests" / "acceptance.json")
    first = run(parse(["batch", "--manifest", manifest, "--seed", "42"]))
    second = run(parse(["batch", "--manifest", manifest, "--seed", "42"]))
    assert first.passed and second.passed
    assert first.render("json") == second.render("json")
    elapsed = time.perf_counter() - start
    _report(12, "full acceptance manifest is byte-identical across runs", elapsed)
