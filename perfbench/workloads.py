"""The four workloads: seeded items, each a call into the program plus an
independent check of its answer.

An item is one certified unit of work.  `call` is the timed program work;
`check` runs afterwards, untimed, and must return True.  Every item has a
time limit; a declared cliff probe (see `CLIFF_PROBES`) that hits its limit
is counted as unsolved rather than as a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

# The program is called through module attributes, so that the tracer in
# spans.py sees every call.
from entriv import (cli, core_algebra, euler_section, hochschild, steenrod_cochains,
                    stunted_ktheory, sym_seq)

import gen

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Item:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    limit_s: float
    probe: bool = False  # a declared Smith-form cliff probe
    sampled: bool = True  # its latency joins the per-item latency samples


@dataclass
class Workload:
    items: list  # one pass, in order
    cold_argv: list  # the single-verb command timed in fresh processes


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def expected_reports() -> dict:
    """sha256 of each canonical report of the acceptance manifest, keyed by
    its argv; taken from the repository's acceptance_report.json."""
    with open(os.path.join(HERE, "expected_reports.json")) as fh:
        return json.load(fh)


def run_cli(argv: list) -> tuple:
    """In-process `entriv <argv>`: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def report_matches(expected: dict, argv: list, report: dict) -> bool:
    return expected.get(json.dumps(argv)) == _digest(report)


# ---------------------------------------------------------------------------
# manifest: the acceptance manifest through `batch`, then verb by verb


def manifest(seed: int, workdir: str) -> Workload:
    """One pass is one `batch` over the whole acceptance manifest in a
    seeded order, then every entry again as its own in-process command.
    Fixed per-command costs dominate (parser, report rendering)."""
    expected = expected_reports()
    with open(os.path.join("manifests", "acceptance.json")) as fh:
        entries = [e["argv"] if isinstance(e, dict) else e for e in json.load(fh)]
    random.Random(seed).shuffle(entries)
    path = os.path.join(workdir, f"manifest-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump([{"argv": a} for a in entries], fh)

    def batch_ok(out):
        code, text = out
        reports = json.loads(text)["payload"]["reports"]
        return code == 0 and len(reports) == len(entries) and all(
            report_matches(expected, argv, rpt) for argv, rpt in zip(entries, reports))

    items = [Item("batch", lambda: run_cli(["batch", "--manifest", path]), batch_ok,
                  limit_s=30.0, sampled=False)]
    for argv in entries:
        items.append(Item(
            argv[0], lambda argv=argv: run_cli(argv),
            lambda out, argv=argv: out[0] == 0 and report_matches(
                expected, argv, json.loads(out[1])),
            limit_s=5.0))
    return Workload(items, ["theta", "--n", "4", "--prime", "3"])


# ---------------------------------------------------------------------------
# operad: composition products sized by materialized basis elements

# kind -> (truncation, number of input sequences, lowest and highest work per
# item, items per pass).  Work is the number of basis elements an item
# materializes (about 40-70 us each today); it is read off the input shapes
# with gen.compose_dims, so sizing never runs the program.  Items of one kind
# still vary by about 20% in cost per element, so a pass holds many small
# items and pass time and latency percentiles depend little on the seed.
OPERAD_KINDS = {
    "assoc4": (4, 3, 500, 750, 20),
    "mono5": (5, 2, 550, 700, 44),
    "compose6": (6, 2, 1000, 1500, 20),
}
# The counts put the median item latency in the middle of the mono5 items
# and the 11th-slowest (the tail) in the middle of the compose6 items, so
# neither percentile sits on the boundary between two kinds.


def _dims_equal(seq, dims: dict, truncation: int) -> bool:
    return all({d: seq.module(n, d).dim for d in seq.degrees(n)} == dims.get(n, {})
               for n in range(1, truncation + 1))


def _product_dims(kind: str, dims: list) -> list:
    """Dimensions of every product the item materializes."""
    if kind == "assoc4":
        a, b, c = dims
        ab, bc = gen.compose_dims(a, b, 4), gen.compose_dims(b, c, 4)
        return [ab, bc, gen.compose_dims(ab, c, 4), gen.compose_dims(a, bc, 4)]
    truncation = OPERAD_KINDS[kind][0]
    ab = gen.compose_dims(dims[0], dims[1], truncation)
    return [ab, ab] if kind == "mono5" else [ab]


def _assoc_item(seqs: list, products: list) -> Item:
    a, b, c = seqs

    def call():
        ab, bc = sym_seq.compose(a, b, 4), sym_seq.compose(b, c, 4)
        left, right = sym_seq.compose(ab, c, 4), sym_seq.compose(a, bc, 4)
        raw = [{n: sym_seq.compose_dimensions_raw(x, y, n) for n in range(1, 5)}
               for x, y in ((a, b), (b, c), (ab, c), (a, bc))]
        chars = [(sym_seq.graded_characters(left, n), sym_seq.graded_characters(right, n))
                 for n in range(1, 5)]
        return (ab, bc, left, right), raw, chars

    def check(out):
        seqs_out, raw, chars = out
        return all(_dims_equal(seq, dims, 4) and _dims_equal(seq, r, 4)
                   for seq, dims, r in zip(seqs_out, products, raw)) \
            and all(lc == rc for lc, rc in chars)

    return Item("assoc4", call, check, limit_s=30.0)


def _mono_item(seqs: list, products: list) -> Item:
    a, b = seqs
    dims = products[0]

    def call():
        report = sym_seq.monoidality_report(a, b, 5)
        return report, {n: sym_seq.compose_dimensions_raw(a, b, n) for n in range(1, 6)}

    def check(out):
        report, raw = out
        # suspension shifts arity n by n - 1 and keeps dimensions
        want = {(n, d + n - 1): m for n, by_degree in dims.items() for d, m in by_degree.items()}
        got = {(n, d): dl for n, d, dl, dr, chars_equal in report.entries
               if dl == dr and chars_equal}
        return report.passed and got == want and len(got) == len(report.entries) \
            and raw == {n: dims.get(n, {}) for n in range(1, 6)}

    return Item("mono5", call, check, limit_s=30.0)


def _compose_item(seqs: list, products: list) -> Item:
    a, b = seqs

    def call():
        return sym_seq.compose(a, b, 6), \
            {n: sym_seq.compose_dimensions_raw(a, b, n) for n in range(1, 7)}

    def check(out):
        product, raw = out
        return _dims_equal(product, products[0], 6) and _dims_equal(product, raw, 6)

    return Item("compose6", call, check, limit_s=60.0)


def operad(seed: int, workdir: str) -> Workload:
    """T=4 associativity with characters, T=5 suspension monoidality and T=6
    products, each drawn until its materialized size falls in the kind's band."""
    rng = random.Random(seed)
    build = {"assoc4": _assoc_item, "mono5": _mono_item, "compose6": _compose_item}
    per_kind = []
    for kind, (truncation, inputs, lo, hi, count) in OPERAD_KINDS.items():
        chosen = []
        while len(chosen) < count:
            specs = [gen.random_spec(rng, truncation) for _ in range(inputs)]
            products = _product_dims(kind, [gen.spec_dims(sp) for sp in specs])
            if lo <= sum(gen.total(p) for p in products) <= hi:
                seqs = [gen.build_symseq(sp, truncation) for sp in specs]
                chosen.append(build[kind](seqs, products))
        per_kind.append(chosen)
    items = [it for group in per_kind for it in group]
    rng.shuffle(items)
    return Workload(items, ["suspend", "--input", "manifests/inputs/pair_a.json", "--k", "1"])


# ---------------------------------------------------------------------------
# homology: Smith forms, homology, Hochschild tables

# Declared Smith-form cliff probes: diag(1..6) of side 32 sheared by 32
# elementary operations on each side (gen.sheared_diagonal).  Measured with a
# 4 s limit on a 2-vCPU Intel Xeon VM under CPython 3.11: seeds 0, 1, 2, 3, 5,
# 6 and 9 stall past 4 s (entries blow up), seeds 4 and 7 finish in 6.5 and
# 3.6 ms, and seed 8 takes 1.07 s (ambiguous, so not used).  Side 16 with 16
# shears stalls for 3 of 6 seeds; side 32 with 16 shears finishes for 6 of 6.
# A probe still running after CLIFF_LIMIT_S counts as unsolved; since the
# probes either finish within 7 ms or run past 4 s, the outcome does not
# depend on the limit.  The structured inputs (gen.KnownComplex) stay below
# the cliff: over 1200 seeds of sides 8, 16 and 32 the slowest side-32 item
# took 72 ms (three Smith forms and a homology) or 0.17 s (a formality
# splitting and four homologies).
CLIFF_PROBES = [(0, 32, 32), (1, 32, 32), (4, 32, 32), (7, 32, 32)]
CLIFF_LIMIT_S = 0.5


def _snf_item(kc: gen.KnownComplex) -> Item:
    def call():
        diagonals = [core_algebra.smith_normal_form(kc.diffs[k]).diagonal
                     for k in range(1, kc.top + 1)]
        return diagonals, core_algebra.homology(kc.complex, "Z")

    def check(out):
        diagonals, h = out
        return diagonals == [kc.smith_diagonal(k) for k in range(1, kc.top + 1)] \
            and gen.group_of(h) == kc.homology("Z")

    return Item(f"snf{kc.size}", call, check, limit_s=5.0)


def _formality_item(kc: gen.KnownComplex) -> Item:
    rings = ("Z", "Q", "F2", "F3")

    def call():
        return core_algebra.formality_splitting(kc.complex), \
            [core_algebra.homology(kc.complex, r) for r in rings]

    def check(out):
        (minimal, certified), groups = out
        known = kc.homology("Z")
        ranks = {n: known.get(n, (0, ()))[0] + len(known.get(n, (0, ()))[1])
                 + len(known.get(n - 1, (0, ()))[1]) for n in range(kc.top + 2)}
        return certified and dict(minimal.ranks) == {n: r for n, r in ranks.items() if r} \
            and all(gen.group_of(h) == kc.homology(r) for h, r in zip(groups, rings))

    return Item("formality", call, check, limit_s=5.0)


def _stunted_item(a: int, b: int) -> Item:
    def call():
        return stunted_ktheory.stunted_integral_homology(a, b), \
            core_algebra.homology(stunted_ktheory.StuntedCellComplex(a, b).chain_complex(), "F2")

    def check(out):
        integral, mod2 = out
        return gen.group_of(integral) == gen.stunted_homology(a, b) \
            and gen.group_of(mod2) == {j: (1, ()) for j in range(a, b + 1)}

    return Item("stunted", call, check, limit_s=10.0)


def _hh_item(ring: str, n: int, smax: int) -> Item:
    def call():
        algebra = hochschild.GradedUnitalAlgebra.square_zero(ring, n)
        return hochschild.bar_hochschild(algebra, smax), \
            hochschild.small_resolution_hh(ring, n, smax)

    return Item("hh", call, lambda out: out[0] == out[1] and bool(out[0].entries),
                limit_s=10.0)


def _probe_item(seed: int, size: int, shears: int) -> Item:
    m = gen.sheared_diagonal(seed, size, shears)
    want = gen.sheared_diagonal_smith(seed, size)
    return Item("cliff", lambda: core_algebra.smith_normal_form(m).diagonal,
                lambda d: d == want, limit_s=CLIFF_LIMIT_S, probe=True, sampled=False)


def homology_workload(seed: int, workdir: str) -> Workload:
    """Structured 8/16/32-square complexes (Smith forms and homology over Z,
    Q, F2, F3, formality), long stunted complexes, bar against periodic
    Hochschild at large smax, and the declared cliff probes."""
    rng = random.Random(seed)
    items = []
    # As many items run faster than the 16-square Smith forms as slower, so
    # the median latency falls among those; the 20 stunted complexes are the
    # slowest and hold the tail.
    for size, count in ((8, 30), (16, 30), (32, 6)):
        items += [_snf_item(gen.KnownComplex(rng, size)) for _ in range(count)]
    for size, count in ((8, 12), (16, 4)):
        items += [_formality_item(gen.KnownComplex(rng, size)) for _ in range(count)]
    for _ in range(20):
        a = rng.randint(-400, 0)
        items.append(_stunted_item(a, a + 400))
    for ring in ("Z", "Q", "F2", "F3"):
        for n in (1, 2, 3):
            items.append(_hh_item(ring, n, 36))
    items += [_probe_item(*p) for p in CLIFF_PROBES]
    random.Random(seed).shuffle(items)
    return Workload(items, ["formality", "--input", "manifests/inputs/complex_rp2.json"])


# ---------------------------------------------------------------------------
# sweep: exact rational configurations and F2 cup-i products


def _certificate_item(m: int, t: int, samples: int, seed: int) -> Item:
    def check(cert):
        return cert.passed and cert.failures == 0 and cert.samples == samples

    return Item("certificate",
                lambda: euler_section.nullhomotopy_certificate(m, t, samples, seed),
                check, limit_s=10.0)


def _configuration_item(configs: list) -> Item:
    def call():
        out = []
        for points in configs:
            cfg = euler_section.Configuration.from_rational(points)
            value = euler_section.section_eval(cfg)
            reports = [euler_section.equivariance_test(cfg, s)
                       for s in permutations(range(len(points)))]
            out.append((value, reports))
        return out

    def check(out):
        return all(value.components == gen.section(points) and not value.is_zero()
                   and all(r.equal for r in reports)
                   for points, (value, reports) in zip(configs, out))

    return Item("configurations", call, check, limit_s=10.0)


def _cup_item(sset, cases: list) -> Item:
    """delta(x cup_i y) = x cup_(i-1) y + y cup_(i-1) x + dx cup_i y + x cup_i dy
    over F_2, with cup_(-1) = 0."""
    def call():
        cup, delta = steenrod_cochains.cup_i, steenrod_cochains.coboundary
        out = []
        for x, y, i in cases:
            lhs = delta(sset, cup(sset, x, y, i))
            terms = [cup(sset, delta(sset, x), y, i), cup(sset, x, delta(sset, y), i)]
            if i:
                terms += [cup(sset, x, y, i - 1), cup(sset, y, x, i - 1)]
            out.append((lhs, terms))
        return out

    def check(out):
        for lhs, terms in out:
            acc = set()
            for term in terms:
                if term.degree != lhs.degree:
                    return False
                acc ^= term.support
            if acc != lhs.support:
                return False
        return True

    return Item("cup_i", call, check, limit_s=10.0)


def _cup_cases(rng: random.Random, sset) -> list:
    """Random F2 cochains for every (|x|, |y|, i) whose identity lands in
    the model's dimensions."""
    top = sset.top_dimension()
    cases = []
    for p in range(top + 1):
        for q in range(top + 1):
            for i in range(min(p, q) + 1):
                if p + q - i + 1 <= top:
                    x = [s for s in sset.names(p) if rng.random() < 0.5]
                    y = [s for s in sset.names(q) if rng.random() < 0.5]
                    cases.append((steenrod_cochains.Cochain.create(p, x),
                                  steenrod_cochains.Cochain.create(q, y), i))
    return cases


def sweep(seed: int, workdir: str) -> Workload:
    """Sampled Euler-section certificates and explicit configurations with
    every relabelling (exact Fractions), plus the cup-i coboundary identity
    on the RP^2 model and triangulated 4- and 5-spheres (F2 cochains).  Sizes
    are fixed; the seed draws points, cochains and certificate seeds."""
    rng = random.Random(seed)
    items = []
    for m, t in ((2, 3), (3, 3), (2, 4), (3, 4)) * 4:
        items.append(_certificate_item(m, t, 50, rng.randrange(1 << 32)))
    for m in (2, 3) * 8:
        items.append(_configuration_item([gen.random_points(rng, m, 4) for _ in range(2)]))
    rp2 = steenrod_cochains.rp2_model()
    for _ in range(6):
        items.append(_cup_item(rp2, [c for _ in range(5) for c in _cup_cases(rng, rp2)]))
    for n, parts in ((4, 2), (4, 2), (5, 4), (5, 4)):
        sphere = gen.simplex_boundary(n)
        cases = _cup_cases(rng, sphere)
        items += [_cup_item(sphere, cases[k::parts]) for k in range(parts)]
    rng.shuffle(items)
    return Workload(items, ["steenrod", "witness", "--n", "2"])


# ---------------------------------------------------------------------------
# reference loops: fixed work of each workload's kind, in the benchmark's own
# code, timed between items to follow the machine's speed (see run.Tally)


def _manifest_reference():
    """Build and use an argparse parser and render JSON, like a CLI call."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="verb")
    for k in range(4):
        p = sub.add_parser(f"verb{k}", help="reference verb")
        p.add_argument("--prime", type=int, required=True)
        p.add_argument("--format", choices=("json", "md"), default="json")
    parser.parse_args(["verb3", "--prime", "5"])
    json.dumps({str(i): [i, {"free": i % 3, "torsion": [2] * (i % 2)}] for i in range(40)},
               sort_keys=True, separators=(",", ":"))


_REFERENCE_SHAPE = gen.spec_dims({1: {0: ["trivial"]}, 2: {1: ["natural", "sign"]},
                                  3: {-1: ["regular"]}, 4: {0: ["twisted"]}})


def _operad_reference():
    """Degree convolutions over set partitions and tuple-keyed indexing."""
    gen.compose_dims(_REFERENCE_SHAPE, _REFERENCE_SHAPE, 5)
    index = {}
    for i in range(300):
        index[((i % 7, i % 11), (i % 5, (i % 3, 1)), i)] = len(index)
    sorted(index, key=lambda key: (key[1], -key[2]))


_REFERENCE_MATRIX = [[(i * 7 + j * 13) % 11 - 5 for j in range(12)] for i in range(12)]


def _homology_reference():
    """Integer row reduction of a fixed 12x12 matrix, as in a Smith form."""
    for _ in range(3):
        a = [row[:] for row in _REFERENCE_MATRIX]
        for t in range(12):
            pivot = next((i for i in range(t, 12) if a[i][t]), None)
            if pivot is None:
                continue
            a[t], a[pivot] = a[pivot], a[t]
            for i in range(t + 1, 12):
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]


_REFERENCE_POINTS = gen.random_points(random.Random(0), 3, 4)


def _sweep_reference():
    """Exact mean-centring and F2 support algebra."""
    for _ in range(3):
        gen.section(_REFERENCE_POINTS)
    support = set(range(0, 200, 3))
    for k in range(20):
        support ^= set(range(k, 200, 7))


WORKLOADS = {"manifest": manifest, "operad": operad, "homology": homology_workload,
             "sweep": sweep}
# workload -> (reference loop, its typical seconds on a 2-vCPU Xeon VM under
# CPython 3.11); the second only sets the scale of the reported times
REFERENCES = {"manifest": (_manifest_reference, 0.0008),
              "operad": (_operad_reference, 0.0005),
              "homology": (_homology_reference, 0.0004),
              "sweep": (_sweep_reference, 0.0003)}
