"""In-memory spans and counters around the program's public functions.

The tracer replaces functions at their module attributes (and every name an
`entriv` module imported directly, such as `cli.homology`) with wrappers that
record a span: name, start, end and the span that was open when it began.
Functions that run hundreds of thousands of times per run are only counted,
since timing them would distort the trace.  Spans stay in flat arrays until
the run ends; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import json
import math
from array import array
from time import perf_counter

from entriv import (cli, core_algebra, euler_section, extended_powers, hochschild, perms,
                    rep_theory, rng, steenrod_cochains, stunted_ktheory, sym_seq)

MODULES = (cli, core_algebra, euler_section, extended_powers, hochschild, perms,
           rep_theory, rng, steenrod_cochains, stunted_ktheory, sym_seq)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.raised = array("b")  # 1 for a call that ended in an exception
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float):
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float):
        self.gauges[key] = max(self.gauges.get(key, 0), value)

    def span(self, fn, name: str, after=None):
        """Wrapper recording one span per call; a call made while a span of
        the same name is open (recursion, or nested rng helpers) is not a new
        span.  `after(tracer, args, result, frame)` records sizes once the span
        has closed, so its own cost is not charged to the layer.  When the call
        is cut off by an exception (an item's time limit), `after` still runs,
        with result None and `frame` the wrapped function's frame as the
        exception left it, so that sizes reached so far can be read."""
        nid = self._id(name)
        code = getattr(fn, "__code__", None)
        stack, start, end, parent, raised = (self._stack, self.start, self.end, self.parent,
                                              self.raised)
        names, counts = self.name, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            start.append(0.0)
            end.append(0.0)
            raised.append(0)
            stack.append(idx)
            counts[calls] = counts.get(calls, 0) + 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                start[idx] = t0
                raised[idx] = 1
                stack.pop()
                if after is not None:
                    tb = exc.__traceback__
                    while tb is not None and tb.tb_frame.f_code is not code:
                        tb = tb.tb_next
                    after(self, args, None, tb and tb.tb_frame)
                    del tb
                raise
            end[idx] = perf_counter()
            start[idx] = t0
            stack.pop()
            if after is not None:
                after(self, args, out, None)
            return out

        return wrapper

    def counter(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper_of):
        """Replace owner.attr (a module function or a class attribute) with
        wrapper_of(original); a module function is also replaced under every
        name that an entriv module bound to the same object."""
        original = getattr(owner, attr)
        wrapped = wrapper_of(original)
        if isinstance(owner, type):
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)
            return
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        for owner, attr, name, kind, after in LAYERS:
            if kind == "span":
                self.patch(owner, attr, lambda f, n=name, a=after: self.span(f, n, a))
            else:
                self.patch(owner, attr, lambda f, n=name: self.counter(f, n))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def busy_and_self(self) -> tuple:
        """Per span name: summed duration and summed self time of the calls
        that returned.  A call that raised (one cut off by an item's time
        limit) is left out, as run.py leaves cut items out of wall_s."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            if self.raised[i]:
                continue
            dur = self.end[i] - self.start[i]
            busy[self.name[i]] += dur
            own[self.name[i]] += dur - child[i]
        return ({self.names[k]: busy[k] for k in range(len(self.names))},
                {self.names[k]: own[k] for k in range(len(self.names))})

    def write(self, path: str):
        """Spans as columns: start and duration in microseconds from the first
        span, name index, parent span index (-1 for a root), 1 if it raised."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {"names": self.names,
                "start_us": [round((s - t0) * 1e6, 1) for s in self.start],
                "dur_us": [round((e - s) * 1e6, 1) for s, e in zip(self.start, self.end)],
                "name": list(self.name), "parent": list(self.parent),
                "raised": list(self.raised),
                "counts": self.counts, "gauges": self.gauges}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# size hooks, run after a span closes


def _snf_sizes(tr: Tracer, args, out, frame):
    """Side of the input and the largest entry of L or R; for a call cut off
    by its time limit, of the L and R it had built so far (its locals `left`
    and `right`), since those are the inputs whose entries blow up."""
    m = args[0]
    tr.maximum("core_algebra.snf.max_side", max(m.rows, m.cols))
    if out is not None:
        mats = (out.left.entries, out.right.entries)
    else:
        mats = (frame.f_locals.get("left", ()), frame.f_locals.get("right", ())) \
            if frame is not None else ()
    bits = max((abs(e).bit_length() for mat in mats for row in mat for e in row), default=0)
    tr.maximum("core_algebra.snf.max_entry_bits", bits)


def _homology_sizes(tr: Tracer, args, out, frame):
    tr.add("core_algebra.homology.degrees", len(args[0].degrees()))


def _bar_sizes(tr: Tracer, args, out, frame):
    dim = args[0].dim
    smax = args[1] if len(args) > 1 else 0
    tr.add("hochschild.bar.basis", sum(dim * (dim - 1) ** s for s in range(smax + 2)))


def _integer_partitions(n: int, cap: int) -> list:
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1)
            for rest in _integer_partitions(n - k, k)]


def _compose_sizes(tr: Tracer, args, out, frame):
    if out is None:
        return
    a, b, truncation = args[0], args[1], args[2]
    tr.add("sym_seq.compose.basis",
           sum(m.dim for _, by_degree in out.components for _, m in by_degree))
    orbits = 0
    for n in range(1, truncation + 1):
        for sizes in _integer_partitions(n, n):
            if a.degrees(len(sizes)) and all(b.degrees(s) for s in sizes):
                orbits += 1
    tr.add("sym_seq.compose.orbits", orbits)


def _cup_sizes(tr: Tracer, args, out, frame):
    sset, x, y, i = args
    degree = x.degree + y.degree - i
    tr.add("steenrod_cochains.cup_i.cuts",
           len(sset.names(degree)) * math.comb(degree + 1, i + 1))


_RNG = rng.CounterRng

# (owner, attribute, span name, "span" or "count", size hook)
LAYERS = [
    (cli, "parse", "cli.parse", "span", None),
    (cli.Report, "render", "cli.render", "span", None),
    (core_algebra, "smith_normal_form", "core_algebra.snf", "span", _snf_sizes),
    (core_algebra.SmithNormalForm, "verify", "core_algebra.snf_verify", "span", None),
    (core_algebra, "homology", "core_algebra.homology", "span", _homology_sizes),
    (core_algebra, "rank_z", "core_algebra.rank_z", "span", None),
    (core_algebra, "rank_mod_p", "core_algebra.rank_mod_p", "span", None),
    (core_algebra, "formality_splitting", "core_algebra.formality", "span", None),
    (hochschild, "bar_hochschild", "hochschild.bar", "span", _bar_sizes),
    (hochschild, "small_resolution_hh", "hochschild.small", "span", None),
    (stunted_ktheory, "stunted_integral_homology", "stunted_ktheory.homology", "span", None),
    (stunted_ktheory, "ku_ses", "stunted_ktheory.ku_ses", "span", None),
    (extended_powers, "verify_ses", "extended_powers.ses", "span", None),
    (extended_powers, "pushout_rank_check", "extended_powers.pushout", "span", None),
    (sym_seq, "compose", "sym_seq.compose", "span", _compose_sizes),
    (sym_seq, "compose_dimensions_raw", "sym_seq.raw_check", "span", None),
    (sym_seq, "monoidality_report", "sym_seq.monoidality", "span", None),
    (sym_seq, "koszul_sign", "sym_seq.koszul_sign.calls", "count", None),
    (rep_theory.SignedPermModule, "__post_init__", "rep_theory.module", "span", None),
    (rep_theory.SignedPermModule, "act_signed", "rep_theory.act_signed.calls", "count", None),
    (rep_theory, "character", "rep_theory.character", "span", None),
    (perms, "adjacent_word", "perms.adjacent_word.calls", "count", None),
    (steenrod_cochains, "cup_i", "steenrod_cochains.cup_i", "span", _cup_sizes),
    (steenrod_cochains, "coboundary", "steenrod_cochains.coboundary", "span", None),
    (euler_section, "section_eval", "euler_section.section_eval", "span", None),
    (euler_section, "equivariance_test", "euler_section.equivariance", "span", None),
    (_RNG, "u64", "rng.draws", "count", None),
] + [(_RNG, method, "rng", "span", None)
     for method in ("below", "randint", "sign", "choice", "shuffle", "fraction", "permutation")]

# per-layer metric -> unit; cli.import_s and trace.overhead_frac are measured
# by run.py, the rest are read from a finished trace
METRICS = {
    "cli.parse.calls": "count", "cli.parse.busy_s": "s", "cli.render.busy_s": "s",
    "cli.import_s": "s",
    "core_algebra.snf.calls": "count", "core_algebra.snf.busy_s": "s",
    "core_algebra.snf.max_side": "count", "core_algebra.snf.max_entry_bits": "bits",
    "core_algebra.snf_verify.busy_s": "s",
    "core_algebra.rank_z.calls": "count",
    "core_algebra.homology.calls": "count", "core_algebra.homology.degrees": "count",
    "core_algebra.homology.self_s": "s", "core_algebra.rank_mod_p.busy_s": "s",
    "core_algebra.formality.busy_s": "s",
    "hochschild.bar.busy_s": "s", "hochschild.bar.basis": "count",
    "hochschild.small.busy_s": "s", "stunted_ktheory.homology.busy_s": "s",
    "stunted_ktheory.ku_ses.busy_s": "s", "extended_powers.ses.busy_s": "s",
    "extended_powers.pushout.busy_s": "s",
    "sym_seq.compose.calls": "count", "sym_seq.compose.busy_s": "s",
    "sym_seq.compose.self_s": "s", "sym_seq.compose.basis": "count",
    "sym_seq.compose.orbits": "count", "sym_seq.koszul_sign.calls": "count",
    "sym_seq.raw_check.busy_s": "s", "sym_seq.monoidality.busy_s": "s",
    "rep_theory.module.calls": "count", "rep_theory.module.busy_s": "s",
    "rep_theory.act_signed.calls": "count", "rep_theory.character.busy_s": "s",
    "perms.adjacent_word.calls": "count",
    "steenrod_cochains.cup_i.calls": "count", "steenrod_cochains.cup_i.busy_s": "s",
    "steenrod_cochains.cup_i.cuts": "count", "steenrod_cochains.coboundary.busy_s": "s",
    "euler_section.section_eval.calls": "count", "euler_section.section_eval.busy_s": "s",
    "euler_section.equivariance.busy_s": "s", "rng.draws": "count", "rng.busy_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-pass values of the traced metrics; the snf maxima are over the run."""
    busy, own = tr.busy_and_self()
    out = {}
    for key in METRICS:
        layer, _, stat = key.rpartition(".")
        if stat == "busy_s":
            out[key] = busy.get(layer, 0.0) / passes
        elif stat == "self_s":
            out[key] = own.get(layer, 0.0) / passes
        elif key in ("core_algebra.snf.max_side", "core_algebra.snf.max_entry_bits"):
            out[key] = tr.gauges.get(key, 0)
        elif key not in ("cli.import_s", "trace.overhead_frac"):
            out[key] = tr.counts.get(key, 0) / passes
    return out
