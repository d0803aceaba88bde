"""Command-line entry point.

Every verb produces a Report rendered as canonical JSON (sorted keys, no
whitespace, one trailing newline), so identical commands with identical
seeds are byte-identical.  Exit codes: 0 the verified claim holds, 1 a
verification failed, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from . import MAX_MATERIALIZED_ARITY, RepeatedKeyError

# Each verb imports its computation modules when it runs, so that a cold
# start loads only what that verb needs.  Likewise a command builds only its
# verb's parser; the full tree of every verb's parser is built only for
# `entriv -h` or a first word that is not a verb.  Abbreviations such as
# `--pri 3`, the `--flag=value` form, help and every error text are the same
# on both routes.


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Command:
    verb: str
    params: dict
    fmt: str | None  # None: not given, which renders JSON
    out: str | None


@dataclass(frozen=True)
class Report:
    verb: str
    parameters: dict
    passed: bool
    claim: str
    payload: dict

    def to_json(self) -> dict:
        return {"verb": self.verb, "parameters": self.parameters,
                "pass": self.passed, "claim": self.claim, "payload": self.payload}

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        lines = [f"# {self.verb}", "",
                 f"* parameters: `{json.dumps(self.parameters, sort_keys=True)}`",
                 f"* claim: {self.claim}",
                 f"* pass: {'yes' if self.passed else 'NO'}", ""]
        lines.append("```json")
        lines.append(json.dumps(self.payload, sort_keys=True, indent=1))
        lines.append("```")
        return "\n".join(lines) + "\n"


# Declared size caps, checked at parse time; VERBS gives each integer option
# its bounds.  Degree windows are walked degree by degree; a stunted cell
# range is printed as a square matrix.
MAX_WINDOW_WIDTH = 100_000  # hi - lo of a degree window, given or default
MAX_CELL_RANGE = 128  # b - a of a stunted cell range
MAX_N = 64
MAX_SMAX = 64
MAX_SAMPLES = 100_000
MAX_PRIME = 2 ** 64 - 1  # below 2^64 the Miller-Rabin bases of is_prime are a proof
MAX_M = 16  # euler: ambient dimension
MAX_T = 1000  # euler: points per configuration
MAX_SPHERE = 64  # steenrod sq: sphere dimension
MAX_K = 64  # steenrod sq: Sq^k of a degree-n class is zero for k > n, and n <= MAX_SPHERE
# euler and batch --seed: CounterRng reads a seed mod 2^64, so a seed outside
# [0, MAX_SEED] would draw the samples of another seed under its own name
MAX_SEED = 2 ** 64 - 1
# compose: basis elements of the product over all arities, read from the input
# files' dimensions (an arity-1 module's dimension is bound by no other data)
MAX_COMPOSE_BASIS = 100_000
# euler: samples * t * m by default (draws and centring), samples * t * t under
# --float, whose coarse grid makes redraws grow like t^2; one --float sample at
# the largest t fits
MAX_EULER_WORK = 1_000_000
# formality --input: matrix cells over all differentials, and bits of an entry.
# Measured on one dense square differential (2-vCPU Xeon VM, CPython 3.11,
# medians of seeded draws): through main, side 64 takes 0.07 s with entries
# in [-9, 9] and 0.17 s with entries up to 2^16 in absolute value; side 100
# with such entries, over the cell cap, takes 0.75 s in the same homology and
# splitting.  The entry cap also keeps every torsion order (at most
# Hadamard's bound, 64 * (16 + 3) bits) far below the 4300 digits that
# rendering an integer allows.
MAX_COMPLEX_CELLS = 4096
MAX_ENTRY_BITS = 16


def _window(text: str, cap: int = MAX_WINDOW_WIDTH) -> tuple:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad window {text!r}, expected LO:HI") from exc
    if lo > hi:
        raise UsageError("window bounds inverted")
    if hi - lo > cap:
        raise UsageError(f"range {text!r} is wider than the cap of {cap}")
    return (lo, hi)


def _cell_range(text: str) -> tuple:
    return _window(text, MAX_CELL_RANGE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Each verb's help text and options.  An option is (flag, default or
# REQUIRED, spec), with an optional dict of further add_argument keywords;
# a flag without dashes is positional.  The spec is an integer's (lo, hi)
# bounds, a tuple of choices, a text parser, or None for a switch.  Every
# integer bound is declared here and nowhere else; parse checks each one.
REQUIRED = ...
_PRIME = (2, MAX_PRIME)
_SEED = (0, MAX_SEED)
_COMMON = (("--format", None, ("json", "md")), ("--out", None, str))
VERBS = {
    "extpow": ("list one extended-power homology basis", (
        ("--prime", REQUIRED, _PRIME), ("--n", REQUIRED, (0, MAX_N)),
        ("--family", REQUIRED, str,  # checked by _validate
         {"help": "extended-power family; an unknown name lists them"}),
        ("--window", None, _window))),
    "ses": ("verify one of the two extended-power sequences", (
        ("--prime", REQUIRED, _PRIME), ("--n", REQUIRED, (1, MAX_N)),
        ("--which", REQUIRED, ("first", "second")), ("--window", None, _window))),
    "pushout": ("kernel comparison for the square of families", (
        ("--prime", REQUIRED, _PRIME), ("--n", REQUIRED, (1, MAX_N)),
        ("--window", None, _window))),
    "moore": ("two-cell family vs the mod-p Moore spectrum", (
        ("--prime", REQUIRED, _PRIME),)),
    "transfer": ("one-class difference of the widest families", (
        ("--prime", REQUIRED, _PRIME), ("--window", (-2, 40), _window))),
    "ku-ses": ("certify the K-theory short exact sequence", (
        ("--prime", REQUIRED, _PRIME), ("--n", REQUIRED, (2, MAX_N)))),
    "theta": ("eigenvalue of theta on a Bott power", (
        ("--n", REQUIRED, (1, MAX_N)), ("--prime", REQUIRED, _PRIME))),
    "witness": ("smash-nilpotence detection report", (
        ("--prime", REQUIRED, _PRIME), ("--n", REQUIRED, (1, MAX_N)))),
    # Sq^k is zero on a range of at most MAX_CELL_RANGE cells once k exceeds it
    "stunted": ("stunted projective computations", (
        ("mode", REQUIRED, ("sq", "homology")),
        ("--range", REQUIRED, _cell_range, {"dest": "cells"}),
        ("--k", 1, (0, MAX_CELL_RANGE)))),
    "steenrod": ("Steenrod squares on sphere models", (
        ("mode", REQUIRED, ("sq", "witness")), ("--sphere", None, (1, MAX_SPHERE)),
        ("--k", 0, (0, MAX_K)), ("--n", None, (1, MAX_N)))),
    "compose": ("composition product of two sequence files", (
        ("--input", REQUIRED, str, {"nargs": 2}),
        ("--truncate", REQUIRED, (1, MAX_MATERIALIZED_ARITY)))),
    # a negative --k desuspends
    "suspend": ("operadic suspension of a sequence file", (
        ("--input", REQUIRED, str), ("--k", REQUIRED, (-MAX_N, MAX_N)))),
    "hh": ("Hochschild homology of R[x]/x^2", (
        ("--ring", REQUIRED, ("Z", "Q", "F2", "F3")), ("--n", REQUIRED, (1, MAX_N)),
        ("--smax", REQUIRED, (0, MAX_SMAX)), ("--golden", None, str))),
    "euler": ("section nonvanishing: sampled sweep or one configuration", (
        ("--m", None, (1, MAX_M)), ("--t", None, (2, MAX_T)),
        ("--samples", 1000, (1, MAX_SAMPLES)), ("--seed", 0, _SEED),
        ("--float", False, None, {"dest": "float_mode",
                                  "help": "draw coordinates from the integers in [-1000, 1000]"}),
        ("--config", None, str,
         {"help": "JSON file: array of point arrays (integers or 'a/b' strings)"}))),
    "formality": ("minimal model of a chain complex file", (
        ("--input", REQUIRED, str),)),
    "batch": ("run a JSON manifest of commands", (
        ("--manifest", REQUIRED, str), ("--seed", None, _SEED))),
}


def _is_bounds(spec) -> bool:
    return type(spec) is tuple and type(spec[0]) is int


# verb -> (name, lo, hi) of each integer option, read off VERBS once
_BOUNDS = {verb: tuple((option[0][2:], *option[2]) for option in options
                        if _is_bounds(option[2]))
           for verb, (_, options) in VERBS.items()}


def _add_options(parser: _Parser, options):
    for flag, default, spec, *extra in options + _COMMON:
        kwargs = dict(*extra)
        if spec is None:
            kwargs["action"] = "store_true"
        elif _is_bounds(spec):
            kwargs.update(type=int, help=f"in [{spec[0]}, {spec[1]}]")
        elif type(spec) is tuple:
            kwargs["choices"] = spec
        else:
            kwargs["type"] = spec
        if flag.startswith("-"):
            kwargs.update({"required": True} if default is REQUIRED else {"default": default})
        parser.add_argument(flag, **kwargs)


def build_parser(add_help: bool = True) -> _Parser:
    """The full tree: a top-level parser with one subparser per verb."""
    parser = _Parser(prog="entriv", description=__doc__, add_help=add_help)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, options) in VERBS.items():
        _add_options(sub.add_parser(verb, help=text, add_help=add_help), options)
    return parser


def _verb_parser(verb: str, add_help: bool) -> _Parser:
    """verb's parser as the full tree builds it: the same prog, options and
    errors, without the other verbs."""
    parser = _Parser(prog=f"entriv {verb}", add_help=add_help)
    _add_options(parser, VERBS[verb][1])
    return parser


_PARSERS: dict = {}  # (verb, or None for the full tree; add_help) -> parser, built on first use


def _namespace(argv: list, add_help: bool) -> tuple:
    """(verb, namespace) of argv.  A verb-first command goes to that verb's
    parser alone: under the full tree the verb's subparser reads every word
    after the verb, so both routes give the same namespace, help and errors.
    Anything else (-h, no verb, an unknown one, an option before the verb)
    goes to the full tree."""
    verb = argv[0] if argv and argv[0] in VERBS else None
    parser = _PARSERS.get((verb, add_help))
    if parser is None:
        parser = _PARSERS[verb, add_help] = \
            build_parser(add_help) if verb is None else _verb_parser(verb, add_help)
    if verb is None:
        ns = parser.parse_args(argv)
        return ns.verb, ns
    return verb, parser.parse_args(argv[1:])


def parse(argv, add_help: bool = True) -> Command:
    """Parse and validate one command.  Batch entries are parsed with
    add_help False: -h would print help and exit the whole batch."""
    argv = list(argv)
    if argv[:1] == ["extpow"] and len(argv) > 1 and argv[1] in ("ses", "pushout"):
        argv = argv[1:]
    verb, ns = _namespace(argv, add_help)
    params = {k: v for k, v in vars(ns).items() if k not in ("verb", "format", "out")}
    for key, lo, hi in _BOUNDS[verb]:
        value = params[key]
        if value is not None and not lo <= value <= hi:
            raise UsageError(f"--{key} {value} is outside the cap [{lo}, {hi}]")
    prime = params.get("prime")
    if prime is not None:
        from . import core_algebra
        if not core_algebra.is_prime(prime):
            raise UsageError(f"--prime {prime} is not a prime")
    _validate(verb, params)
    return Command(verb, params, ns.format, ns.out)


def _validate(verb: str, params: dict):
    """The rules that join parameters or need a computation module; each
    option's own bounds are in VERBS."""
    if verb == "extpow":
        from . import extended_powers
        if params["family"] not in extended_powers.FAMILIES:
            raise UsageError(f"--family {params['family']!r} is not one of "
                             f"{', '.join(extended_powers.FAMILIES)}")
    elif verb in ("ses", "pushout") and params["window"] is None:
        from . import extended_powers
        lo, hi = extended_powers.default_window(params["prime"], params["n"])
        if hi - lo > MAX_WINDOW_WIDTH:
            raise UsageError(f"the default window of {verb} at --prime {params['prime']} is "
                             f"wider than the cap of {MAX_WINDOW_WIDTH}; pass --window")
    elif verb == "transfer" and not params["window"][0] <= -1 <= params["window"][1]:
        raise UsageError("the transfer claim is about degree -1; --window must contain it")
    elif verb == "euler" and params["config"] is None:
        if params["m"] is None or params["t"] is None:
            raise UsageError("euler requires --m and --t (or --config FILE)")
        per_point = "t" if params["float_mode"] else "m"
        work = params["samples"] * params["t"] * params[per_point]
        if work > MAX_EULER_WORK:
            raise UsageError(f"euler work samples * t * {per_point} = {work} exceeds "
                             f"the cap of {MAX_EULER_WORK}")
    elif verb == "steenrod":
        needed = "sphere" if params["mode"] == "sq" else "n"
        if params[needed] is None:
            raise UsageError(f"steenrod {params['mode']} requires --{needed}")


# ---------------------------------------------------------------------------
# verb handlers


def _run_extpow(p):
    from . import extended_powers

    if p["prime"] == 2:
        model = extended_powers.p2_stunted_model(p["n"], p["family"])
        window = p["window"] or (model.bottom, model.bottom + 12)
        payload = {"model": model.label(),
                   "cells": model.cells(window),
                   "class_degrees": [c.degree for c in extended_powers.dl_basis(
                       2, p["n"], p["family"], window).classes]}
        ok = extended_powers.p2_cell_class_agreement(p["n"], p["family"], window)
        claim = "stunted cell model agrees with the degree-class encoding"
    else:
        window = p["window"] or extended_powers.default_window(p["prime"], p["n"])
        basis = extended_powers.dl_basis(p["prime"], p["n"], p["family"], window)
        payload = basis.to_json()
        ok = extended_powers.bockstein_pairing_consistent(p["prime"], p["n"], p["family"])
        claim = "the Bockstein partner accompanies every strictly admissible class"
    return ok, payload, claim


def _run_ses(p):
    from . import extended_powers

    report = extended_powers.verify_ses(p["prime"], p["n"], p["which"], p["window"])
    return report.passed, report.to_json(), \
        "degreewise exactness of the extended-power sequence"


def _run_pushout(p):
    from . import extended_powers

    report = extended_powers.pushout_rank_check(p["prime"], p["n"], p["window"])
    return report.passed, report.to_json(), \
        "the two vertical maps of the family square have equal kernels"


def _run_moore(p):
    from . import extended_powers

    report = extended_powers.moore_identification(p["prime"])
    return report.passed, report.to_json(), \
        "the two-cell family is the shifted mod-p Moore spectrum with top-cell projection"


def _run_transfer(p):
    from . import extended_powers

    report = extended_powers.transfer_cofiber_check(p["prime"], p["window"])
    return report.passed, report.to_json(), \
        "the widest families differ by exactly one class in degree -1"


def _run_ku_ses(p):
    from . import stunted_ktheory

    triple, cert = stunted_ktheory.ku_ses(p["prime"], p["n"])
    payload = {"left": triple.left, "middle": triple.middle, "right": triple.right,
               "k": triple.k, "map_in": list(triple.map_in),
               "certificate": cert.to_json()}
    return cert.passed, payload, \
        "Smith-form certificate of the K-theory short exact sequence"


def _run_theta(p):
    from . import stunted_ktheory

    value = stunted_ktheory.adams_theta(p["n"], p["prime"])
    ok = value * p["prime"] == p["prime"] ** p["n"]
    return ok, {"value": value}, "theta eigenvalue times p recovers the psi eigenvalue"


def _run_witness(p):
    from . import stunted_ktheory

    w = stunted_ktheory.nilpotence_witness(p["prime"], p["n"])
    consistent = (p["n"] >= 2 and w.detected == (stunted_ktheory.torsion_exponent(p["n"]) >= 1)) \
        or (p["n"] == 1 and not w.detected)
    return consistent, w.to_json(), \
        "detection flag agrees with the torsion exponent case split"


def _run_stunted(p):
    from . import core_algebra, stunted_ktheory

    a, b = p["cells"]
    if p["mode"] == "sq":
        mat = stunted_ktheory.stunted_sq(a, b, p["k"])
        sq1 = stunted_ktheory.stunted_sq(a, b, 1)
        ok = core_algebra.product_is_zero(sq1, sq1)
        return ok, {"k": p["k"], "matrix": mat.to_lists()}, \
            "squares computed by the mod-2 binomial rule (Sq^1 Sq^1 = 0 spot check)"
    h = stunted_ktheory.stunted_integral_homology(a, b)
    mod2 = core_algebra.homology(stunted_ktheory.StuntedCellComplex(a, b).chain_complex(), "F2")
    ok = all(mod2.component(d) == (1, ()) for d in range(a, b + 1))
    return ok, {"integral": h.to_json(), "mod2": mod2.to_json()}, \
        "integral homology of the alternating cell complex; mod-2 sees every cell"


def _run_steenrod(p):
    from . import steenrod_cochains

    if p["mode"] == "sq":
        n, k = p["sphere"], p["k"]
        model = steenrod_cochains.sphere_model(n)
        gen = steenrod_cochains.Cochain.create(n, ["t"])
        cls = steenrod_cochains.sq(model, k, gen)
        target_dim = steenrod_cochains.h_dim(model, n + k)
        ok = (not cls.is_zero()) if k == 0 else len(cls.representative) <= target_dim
        return ok, {"sphere": n, "k": k, "class": list(cls.representative),
                    "target_dimension": target_dim}, \
            "the square lands in the correct (possibly zero) cohomology group"
    report = steenrod_cochains.triviality_witness(p["n"])
    return report.not_trivial, report.to_json(), \
        "cochain-level Sq^0 is the identity while the square-zero value is forced to vanish"


def _run_compose(p):
    from . import sym_seq

    with open(p["input"][0]) as fh:
        a = sym_seq.SymSeq.from_json(json.load(fh))
    with open(p["input"][1]) as fh:
        b = sym_seq.SymSeq.from_json(json.load(fh))
    # the raw sums are cheap, so they size the product before it is built
    arities = range(1, p["truncate"] + 1)
    raw = {n: sym_seq.compose_dimensions_raw(a, b, n) for n in arities}
    basis = sum(sum(dims.values()) for dims in raw.values())
    if basis > MAX_COMPOSE_BASIS:
        raise ValueError(f"the product has {basis} basis elements, over the cap of "
                         f"{MAX_COMPOSE_BASIS}")
    result = sym_seq.compose(a, b, p["truncate"])
    ok = all({d: result.dimension(n, d) for d in result.degrees(n)} == raw[n] for n in raw)
    payload = {"result": result.to_json(),
               "raw_dimension_check": {str(n): {str(d): v for d, v in raw[n].items()}
                                       for n in raw}}
    return ok, payload, "orbit-induced dimensions equal the raw partition sum"


def _run_suspend(p):
    from . import sym_seq

    with open(p["input"]) as fh:
        a = sym_seq.SymSeq.from_json(json.load(fh))
    result = sym_seq.suspend(a, p["k"])
    ok = sym_seq.suspend(result, -p["k"]) == a
    return ok, {"result": result.to_json()}, "suspension followed by desuspension is the identity"


def _run_hh(p):
    from . import hochschild

    bar = hochschild.bar_hochschild(
        hochschild.GradedUnitalAlgebra.square_zero(p["ring"], p["n"]), p["smax"])
    small = hochschild.small_resolution_hh(p["ring"], p["n"], p["smax"])
    ok = bar == small
    payload = {"table": small.to_json(), "bar_equals_small_resolution": ok}
    if p["golden"] is not None:  # "" too, which fails to open
        with open(p["golden"]) as fh:
            golden = hochschild.BigradedGroup.from_json(json.load(fh))
        matches = golden == small
        payload["matches_golden"] = matches
        ok = ok and matches
    return ok, payload, "bar complex and periodic resolution agree on every bidegree"


def _coordinate(x):
    """One --config coordinate, read exactly: an integer or an 'a/b' string,
    never a decimal, padded or exponent one ('1e3000000' has 3000001 digits)."""
    from fractions import Fraction

    if type(x) is int or (type(x) is str and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"coordinate {x!r} is neither an integer nor an 'a/b' string")


def _run_euler(p):
    from . import euler_section

    if p["config"] is not None:  # "" too, which fails to open
        from itertools import permutations

        with open(p["config"]) as fh:
            rows = json.load(fh)
        if not isinstance(rows, list) or not all(isinstance(pt, list) for pt in rows):
            raise ValueError("--config must hold a JSON array of point arrays")
        if len(rows) > MAX_T:
            raise ValueError(f"--config holds {len(rows)} points, over the cap of {MAX_T}")
        widest = max(map(len, rows), default=0)
        if widest > MAX_M:
            raise ValueError(f"--config has a point of {widest} coordinates, "
                             f"over the cap of {MAX_M}")
        cfg = euler_section.Configuration.from_rational(
            [[_coordinate(x) for x in pt] for pt in rows])
        value = cfg.section
        if cfg.size <= 5:
            sigmas = list(permutations(range(cfg.size)))
        else:
            from entriv.rng import CounterRng
            rng = CounterRng(p["seed"])
            sigmas = [rng.permutation(cfg.size) for _ in range(24)]
        equivariant = all(euler_section.equivariance_test(cfg, s).equal for s in sigmas)
        payload = {"points": [[str(x) for x in pt] for pt in cfg.points],
                   "section": [[str(x) for x in comp] for comp in value.components],
                   "nonzero": not value.is_zero(),
                   "equivariance_checked": len(sigmas),
                   "equivariant": equivariant}
        return (not value.is_zero()) and equivariant, payload, \
            "the mean-centered coordinate section is nonzero and relabelling-equivariant"
    cert = euler_section.nullhomotopy_certificate(
        p["m"], p["t"], p["samples"], p["seed"], grid=p["float_mode"])
    return cert.passed, cert.to_json(), \
        "the mean-centered coordinate section never vanishes on sampled configurations"


def _complex_size(data) -> tuple:
    """(matrix cells, widest integer entry in bits) of a chain-complex
    document, read before ChainComplex.from_json checks it, so that a file
    over the caps fails before d o d is multiplied out; a part of another
    shape counts for nothing here."""
    diffs = data.get("differentials") if isinstance(data, dict) else None
    rows = [row for mat in diffs.values() if isinstance(mat, list)
            for row in mat if isinstance(row, list)] if isinstance(diffs, dict) else []
    return sum(map(len, rows)), max((abs(e).bit_length() for row in rows for e in row
                                     if type(e) is int), default=0)


def _run_formality(p):
    from . import core_algebra

    with open(p["input"]) as fh:
        data = json.load(fh)
    cells, bits = _complex_size(data)
    if cells > MAX_COMPLEX_CELLS:
        raise UsageError(f"the complex has {cells} matrix cells, over the cap of "
                         f"{MAX_COMPLEX_CELLS}")
    if bits > MAX_ENTRY_BITS:
        raise UsageError(f"the complex has a {bits}-bit matrix entry, over the cap of "
                         f"{MAX_ENTRY_BITS} bits")
    h = core_algebra.homology(core_algebra.ChainComplex.from_json(data), "Z")
    minimal, certified = core_algebra.split_homology(h)
    return certified, {"minimal": minimal.to_json(), "homology": h.to_json(),
                       "certified": certified}, \
        "the split minimal model has the homology of the input"


_HANDLERS = {
    "extpow": _run_extpow, "ses": _run_ses, "pushout": _run_pushout,
    "moore": _run_moore, "transfer": _run_transfer, "ku-ses": _run_ku_ses,
    "theta": _run_theta, "witness": _run_witness, "stunted": _run_stunted,
    "steenrod": _run_steenrod, "compose": _run_compose, "suspend": _run_suspend,
    "hh": _run_hh, "euler": _run_euler, "formality": _run_formality,
}


def run(cmd: Command) -> Report:
    if cmd.verb == "batch":
        return run_batch(cmd)
    try:
        passed, payload, claim = _HANDLERS[cmd.verb](cmd.params)
    except RepeatedKeyError as exc:  # an input file names one degree, arity or bidegree twice
        raise UsageError(str(exc)) from exc
    except (ValueError, OSError) as exc:
        return Report(cmd.verb, cmd.params, False, "structured failure", {"error": str(exc)})
    return Report(cmd.verb, cmd.params, passed, claim, payload)


def run_batch(cmd: Command) -> Report:
    try:
        with open(cmd.params["manifest"]) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest, list):
        raise UsageError("manifest must be a JSON list of commands")
    reports = []
    failures = []
    for idx, entry in enumerate(manifest):
        argv = entry.get("argv") if isinstance(entry, dict) else entry
        try:
            if not isinstance(argv, list):
                raise UsageError(f"manifest entry {idx} has no argv list")
            argv = [str(a) for a in argv]
            if cmd.params.get("seed") is not None and argv[:1] == ["euler"]:
                # right after the verb, so that a seed the entry sets comes later and wins
                argv[1:1] = ["--seed", str(cmd.params["seed"])]
            entry_cmd = parse(argv, add_help=False)
            if entry_cmd.verb == "batch":  # a manifest naming itself would recurse
                raise UsageError("a manifest entry cannot itself be batch")
            if entry_cmd.out is not None or entry_cmd.fmt is not None:
                raise UsageError("a manifest entry cannot take --out or --format: "
                                 "batch renders every report into its own")
            rpt = run(entry_cmd)
        except UsageError as exc:  # a bad entry fails alone; the others still run
            rpt = Report(argv[0] if isinstance(argv, list) and argv else "", {"argv": argv},
                         False, "usage error", {"error": str(exc)})
        reports.append(rpt.to_json())
        if not rpt.passed:
            failures.append(idx)
    payload = {"commands": len(manifest), "failed_indices": failures,
               "reports": reports}
    return Report("batch", {"manifest": cmd.params["manifest"]},
                  not failures, "every manifest command passed", payload)


def _unrenderable_failed(report: Report, exc: ValueError) -> Report:
    """report, which cannot be rendered, as a structured failure.  In a batch
    only the entries that cannot be rendered fail; the others keep their
    reports."""
    def failed(verb, parameters, error):
        return Report(verb, parameters, False, "structured failure",
                      {"error": f"the report cannot be rendered: {error}"})

    if report.verb != "batch":
        return failed(report.verb, report.parameters, exc)
    reports, failures = [], []
    for idx, entry in enumerate(report.payload["reports"]):
        try:
            json.dumps(entry)
        except ValueError as entry_exc:
            entry = failed(entry["verb"], entry["parameters"], entry_exc).to_json()
        reports.append(entry)
        if not entry["pass"]:
            failures.append(idx)
    payload = dict(report.payload, failed_indices=failures, reports=reports)
    return Report(report.verb, report.parameters, not failures, report.claim, payload)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cmd = parse(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(cmd)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    fmt = cmd.fmt or "json"
    try:
        text = report.render(fmt)
    except ValueError as exc:  # an integer longer than int-to-str conversion allows
        report = _unrenderable_failed(report, exc)
        text = report.render(fmt)
    if cmd.out:
        try:
            with open(cmd.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
