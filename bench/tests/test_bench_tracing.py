"""Span reducer and wrappers, on hand-built spans and a fake clock."""

import pytest

import tracing
from tracing import Patches, Tracer, install, self_times


def test_self_times_hand_built_tree():
    # (id, parent, name, start, end)
    spans = [
        (1, 0, "build", 0.0, 10.0),
        # generator spans: each covers one next(), the gaps belong to the consumer
        (2, 1, "seqio.open_reads", 0.0, 1.0),
        (3, 1, "seqio.open_reads", 2.0, 2.5),
        # nested same-name spans: each keeps its own self time
        (4, 1, "query", 3.0, 8.0),
        (5, 4, "query", 4.0, 6.0),
        (6, 5, "rank", 4.5, 5.0),
        (7, 0, "score", 11.0, 12.0),
    ]
    got = self_times(spans)
    assert got["build"] == pytest.approx(10.0 - 1.0 - 0.5 - 5.0)
    assert got["seqio.open_reads"] == pytest.approx(1.5)
    assert got["query"] == pytest.approx((5.0 - 2.0) + (2.0 - 0.5))
    assert got["rank"] == pytest.approx(0.5)
    assert got["score"] == pytest.approx(1.0)
    # self times add up to the time covered by the root spans
    assert sum(got.values()) == pytest.approx(10.0 + 1.0)


def test_self_times_clips_children_to_parent_and_merges_overlaps():
    spans = [
        (1, 0, "p", 0.0, 4.0),
        (2, 1, "c", 1.0, 3.0),
        (3, 1, "c", 2.0, 5.0),  # overlaps its sibling and outlives the parent
    ]
    assert self_times(spans)["p"] == pytest.approx(1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_generator_span_covers_next_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Rec:
        def __init__(self, seq):
            self.seq = seq

    def reads():
        for seq in ("ACGT", "AC"):
            clock.advance(1.0)  # producing a record
            yield Rec(seq)
        clock.advance(0.25)  # end-of-file detection

    def consume(gen):
        for _ in gen:
            clock.advance(10.0)  # consumer work between records

    traced_reads = tracer.wrap("seqio.open_reads", reads)
    tracer.wrap("consumer", consume)(traced_reads())

    selfs = self_times(tracer.spans)
    assert selfs["seqio.open_reads"] == pytest.approx(2.25)
    assert selfs["consumer"] == pytest.approx(20.0)
    parents = {s[2]: s[1] for s in tracer.spans}
    assert parents["seqio.open_reads"] == next(s[0] for s in tracer.spans if s[2] == "consumer")
    counts = tracer.counts["seqio.open_reads"]
    assert (counts["reads"], counts["bases"]) == (2, 6)


def test_every_wrapped_name_exists_and_restores():
    import quasidict
    from quasidict import counter, kcount, kmer, linker
    from quasidict.core import QuasiDictionary

    originals = (kmer.scan_kmers, counter.scan_kmers, QuasiDictionary.__dict__["create"])
    for spec in [*tracing.FUNCTIONS.values(), *tracing.METHODS.values()]:
        assert callable(tracing.resolve(spec)), spec
    patches = install(Tracer())
    try:
        # every binding of a wrapped function is replaced, not only the definition
        for mod in (kmer, kcount, counter, linker):
            assert mod.scan_kmers.__wrapped__ is originals[0]
        assert quasidict.open_reads is linker.open_reads is counter.open_reads
    finally:
        patches.restore()
    assert (kmer.scan_kmers, counter.scan_kmers, QuasiDictionary.__dict__["create"]) == originals


def test_missing_name_fails_loudly():
    with pytest.raises(AttributeError, match="no longer exists"):
        tracing.resolve(("quasidict.counter", "build_counter_index_renamed"))
    patches = Patches()
    with pytest.raises(AttributeError):
        tracing.wrap_function(patches, ("quasidict.kmer", "no_such_function"), lambda f: f)
    assert patches.saved == []


def test_stopwatch_keeps_wall_and_cpu_time_apart():
    wall, cpu = FakeClock(), FakeClock()
    watch = tracing.Stopwatch(clock=wall, cpu_clock=cpu)

    def build(n):
        wall.advance(2.0)  # 2 s of wall time, of which 1.5 s on the CPU
        cpu.advance(1.5)
        return n + 1

    timed = watch.wrap(build)
    assert timed(1) == 2 and timed(5) == 6
    assert (watch.calls, watch.seconds, watch.cpu_seconds, watch.last) == (2, 4.0, 3.0, 6)
    assert watch.window == (2.0, 4.0)
