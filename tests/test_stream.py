"""Access-stream tests: issue pacing, windowing, draining."""

from repro.common import EventQueue
from repro.gpu.stream import AccessStream, TraceAccess


def make_stream(queue, accesses, window=4, translate_latency=10,
                data_latency=5):
    def translate(stream_id, pasid, vpn, cb):
        queue.schedule(translate_latency,
                       lambda: cb(type("E", (), {"global_pfn": vpn + 100})()))

    class Fabric:
        def access(self, chiplet_id, pasid, vpn, pfn, cb):
            queue.schedule(data_latency, cb)

    return AccessStream(queue, 0, accesses, window,
                        translate=translate, fabric=Fabric())


def accesses(n, gap=0, weight=2.0):
    return [TraceAccess(pasid=0, vpn=i, weight=weight, gap=gap)
            for i in range(n)]


def test_drains_all_accesses():
    q = EventQueue()
    stream = make_stream(q, accesses(10))
    stream.start()
    q.run()
    assert stream.drained
    assert stream.finish_time == q.now


def test_empty_trace_finishes_immediately():
    q = EventQueue()
    stream = make_stream(q, [])
    stream.start()
    q.run()
    assert stream.drained
    assert stream.finish_time == 0


def test_gap_paces_issues():
    """With a huge window, runtime ~ n*gap + pipeline tail."""
    q = EventQueue()
    stream = make_stream(q, accesses(10, gap=50), window=64)
    stream.start()
    q.run()
    assert 9 * 50 <= q.now <= 9 * 50 + 100


def test_window_limits_outstanding():
    """With window 1 and zero gap, accesses fully serialize."""
    q = EventQueue()
    stream = make_stream(q, accesses(5, gap=0), window=1,
                            translate_latency=10, data_latency=10)
    stream.start()
    q.run()
    assert q.now >= 5 * 20
    assert stream.stats.count("window_stalls") > 0


def test_instructions_sum_weights():
    q = EventQueue()
    stream = make_stream(q, accesses(8, weight=2.5))
    assert stream.instructions == 20.0


def test_translation_latency_observed():
    q = EventQueue()
    stream = make_stream(q, accesses(4), translate_latency=33)
    stream.start()
    q.run()
    assert stream.latency_hist.mean() == 33
