"""Span recorder and wrappers around the public callables of quasidict.

The benchmark measures the program from outside: it never edits ``src/``.
For a traced run it replaces every module attribute (and class attribute,
for methods) that binds one of the callables in ``FUNCTIONS`` / ``METHODS``
with a wrapper that records a span per call. A span is
``(id, parent id, name, start, end)``; spans are appended to a list in
memory and written out once the run ends. Counts (keys, reads, hits, ...)
are kept by per-name hooks at the same boundaries.

Generators (``seqio.open_reads``) get one span per ``next()``, so their
span covers the time spent producing a record, not the consumer's time
between records.

``self_times`` reduces a span list to self time per name: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (defining module, attribute); every module attribute under
# ``quasidict`` that binds the same object is wrapped, so a caller that did
# ``from .kmer import scan_kmers`` is traced too.
FUNCTIONS = {
    "seqio.open_reads": ("quasidict.seqio", "open_reads"),
    "kmer.scan_kmers": ("quasidict.kmer", "scan_kmers"),
    "kcount.count_solid": ("quasidict.kcount", "count_solid"),
    "core.fingerprint_array": ("quasidict.core", "fingerprint_array"),
    "counter.build_counter_index": ("quasidict.counter", "build_counter_index"),
    "counter.count_read": ("quasidict.counter", "count_read"),
    "counter.format_count_line": ("quasidict.counter", "format_count_line"),
    "linker.build_linker_index": ("quasidict.linker", "build_linker_index"),
    "linker.link_read": ("quasidict.linker", "link_read"),
    "linker.format_link_line": ("quasidict.linker", "format_link_line"),
    "evaluation.score": ("quasidict.evaluation", "score"),
}

# span name -> (defining module, class, method); patched on the class
METHODS = {
    "core.create": ("quasidict.core", "QuasiDictionary", "create"),
    "core.query_array": ("quasidict.core", "QuasiDictionary", "query_array"),
    "mphf.construct": ("quasidict.mphf", "Mphf", "construct"),
    "mphf.lookup_array": ("quasidict.mphf", "Mphf", "lookup_array"),
    "bitrank.rank1_array": ("quasidict.bitrank", "RankBitVector", "rank1_array"),
    "bitrank.get_array": ("quasidict.bitrank", "RankBitVector", "get_array"),
}

GENERATORS = {"seqio.open_reads"}


def rss_mib() -> float:
    """Peak resident set size of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_hooks():
    """Per-name hooks ``(counts, args, result)`` that update a name's counters.

    Arguments are positional as the program passes them; ``args[0]`` is
    ``self`` / ``cls`` for methods.
    """

    def scan(c, args, res):
        seq, k = args[:2]
        c["windows"] += max(0, len(seq) - k + 1)
        c["kmers"] += len(res[1])

    def solid(c, args, res):
        c["solid"] += len(res)
        c["saturated"] += int(np.count_nonzero(res.counts == 255))

    def construct(c, args, res):
        c["levels"] += len(res.levels)
        c["fallback"] += len(res.fallback_keys)

    def sized(c, args, res):
        c["keys"] += len(res)

    def found(c, args, res):
        sized(c, args, res)
        c["found"] += int(np.count_nonzero(res >= 0))

    def peak(c, args, res):
        c["peak_rss_mb"] = max(c["peak_rss_mb"], rss_mib())

    def linker_index(c, args, res):
        peak(c, args, res)
        c["postings"] += len(res.ids)
        c["keys"] += res.qd.n_keys

    def links(c, args, res):
        c["links"] += len(res)

    return {
        "kmer.scan_kmers": scan,
        "kcount.count_solid": solid,
        "core.create": peak,
        "core.query_array": found,
        "core.fingerprint_array": sized,
        "mphf.construct": construct,
        "mphf.lookup_array": found,
        "bitrank.rank1_array": sized,
        "bitrank.get_array": sized,
        "counter.build_counter_index": peak,
        "linker.build_linker_index": linker_index,
        "linker.link_read": links,
    }


class Tracer:
    """In-memory span list, open-span stack and per-name counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[int] = [0]  # 0 is the root: no parent span
        self.next_id = 1
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.hooks = _count_hooks()

    def span(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span named ``name``."""
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def call(self, name: str, fn, args, kwargs):
        res = self.span(name, fn, args, kwargs)
        counts = self.counts[name]
        counts["calls"] += 1
        hook = self.hooks.get(name)
        if hook is not None:
            hook(counts, args, res)
        return res

    def generator(self, name: str, gen):
        """Re-yield ``gen``'s items, one span per ``next()``."""
        counts = self.counts[name]
        counts["calls"] += 1
        while True:
            try:
                rec = self.span(name, next, (gen,), {})
            except StopIteration:
                return
            counts["reads"] += 1
            counts["bases"] += len(rec.seq)
            yield rec

    def wrap(self, name: str, fn):
        if name in GENERATORS:

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self.generator(name, fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as JSON: one ``[id, parent, name, start, end]`` row each."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def _quasidict_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "quasidict" or n.startswith("quasidict.")]


def resolve(spec: tuple) -> object:
    """The object a FUNCTIONS / METHODS entry names; raises if it is gone."""
    module = importlib.import_module(spec[0])
    owner = module
    for attr in spec[1:]:
        if not hasattr(owner, attr):
            raise AttributeError(f"{'.'.join(spec)} no longer exists; the benchmark must be updated")
        owner = getattr(owner, attr)
    return owner


def wrap_function(patches: Patches, spec: tuple[str, str], make_wrapper) -> None:
    """Replace every quasidict module attribute bound to ``spec``'s function."""
    original = resolve(spec)
    wrapper = make_wrapper(original)
    for module in _quasidict_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, wrapper)


def wrap_method(patches: Patches, spec: tuple[str, str, str], make_wrapper) -> None:
    """Replace a method (plain or classmethod) on its class."""
    resolve(spec)
    cls = getattr(importlib.import_module(spec[0]), spec[1])
    raw = cls.__dict__[spec[2]]
    if isinstance(raw, classmethod):
        patches.set(cls, spec[2], classmethod(make_wrapper(raw.__func__)))
    else:
        patches.set(cls, spec[2], make_wrapper(raw))


def install(tracer: Tracer) -> Patches:
    """Wrap every callable in FUNCTIONS and METHODS; returns the undo record."""
    patches = Patches()
    try:
        for name, spec in FUNCTIONS.items():
            wrap_function(patches, spec, functools.partial(tracer.wrap, name))
        for name, spec in METHODS.items():
            wrap_method(patches, spec, functools.partial(tracer.wrap, name))
    except BaseException:
        patches.restore()
        raise
    return patches


class Stopwatch:
    """The one wrapper an untraced run keeps: total wall and CPU time and calls of one callable."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.calls = 0
        self.last = None  # the callable's last return value
        self.window = None  # (start, end) of the last call on ``clock``

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0, c0 = self.clock(), self.cpu_clock()
            res = fn(*args, **kwargs)
            t1 = self.clock()
            self.seconds += t1 - t0
            self.cpu_seconds += self.cpu_clock() - c0
            self.window = (t0, t1)
            self.calls += 1
            self.last = res
            return res

        return timed


def self_times(spans) -> dict[str, float]:
    """Self time per span name.

    A span's self time is its duration minus the union of its children's
    intervals, clipped to the span. Nested spans of the same name each keep
    their own self time, so nothing is counted twice.
    """
    children = defaultdict(list)
    for sid, parent, _name, t0, t1 in spans:
        children[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, t0, t1 in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[name] += (t1 - t0) - covered
    return dict(out)
