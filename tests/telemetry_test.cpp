/**
 * @file
 * Telemetry pipeline unit tests: flight rings, spans, time-series
 * metrics, SLO attribution, and the Telemetry hub's fault capture.
 *
 * The concurrency tests (writer-vs-dumper on a flight ring, live
 * workers vs the metrics sampler) are in CI's TSan matrix: their value
 * is as much "no data race reports" as the assertions themselves.
 */

#include <gtest/gtest.h>

#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace cdpu::obs
{
namespace
{

FlightEvent
event(u64 id, u64 t, u8 kind = 0, u8 direction = 0, u8 outcome = 0,
      u64 in = 0, u64 out = 0)
{
    FlightEvent e;
    e.id = id;
    e.timestampNs = t;
    e.kind = kind;
    e.direction = direction;
    e.outcome = outcome;
    e.bytesIn = in;
    e.bytesOut = out;
    return e;
}

// --- FlightRing ------------------------------------------------------

TEST(FlightRingTest, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(FlightRing(0).capacity(), 8u);
    EXPECT_EQ(FlightRing(8).capacity(), 8u);
    EXPECT_EQ(FlightRing(10).capacity(), 16u);
    EXPECT_EQ(FlightRing(256).capacity(), 256u);
}

TEST(FlightRingTest, DumpReturnsLastKOldestFirst)
{
    FlightRing ring(16);
    for (u64 i = 0; i < 100; ++i)
        ring.record(event(i, 1000 + i));
    EXPECT_EQ(ring.recorded(), 100u);

    auto last = ring.dump(4);
    ASSERT_EQ(last.size(), 4u);
    EXPECT_EQ(last.front().id, 96u);
    EXPECT_EQ(last.back().id, 99u);
    EXPECT_EQ(last.back().timestampNs, 1099u);
}

TEST(FlightRingTest, DumpClampsToRecordedAndCapacity)
{
    FlightRing ring(8);
    ring.record(event(7, 1));
    ring.record(event(8, 2));
    auto all = ring.dump(100);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].id, 7u);
    EXPECT_EQ(all[1].id, 8u);

    for (u64 i = 0; i < 50; ++i)
        ring.record(event(i, i));
    // Only the newest lap survives a full wrap.
    EXPECT_EQ(ring.dump(100).size(), ring.capacity());
}

TEST(FlightRingTest, EventFieldsSurviveTheRing)
{
    FlightRing ring(8);
    ring.record(event(42, 9001, 3, 1, 2, 4096, 512));
    auto events = ring.dump(1);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].id, 42u);
    EXPECT_EQ(events[0].timestampNs, 9001u);
    EXPECT_EQ(events[0].kind, 3u);
    EXPECT_EQ(events[0].direction, 1u);
    EXPECT_EQ(events[0].outcome, 2u);
    EXPECT_EQ(events[0].bytesIn, 4096u);
    EXPECT_EQ(events[0].bytesOut, 512u);
}

TEST(FlightRingTest, ConcurrentDumperSeesNoGarbage)
{
    // TSan coverage for the documented contract: the single writer
    // streams events while another thread dumps mid-lap. Dumps may
    // contain torn events (fields from two records), but every field
    // is individually a value some record wrote — never garbage.
    FlightRing ring(32);
    constexpr u64 kEvents = 20000;
    std::thread writer([&] {
        for (u64 i = 0; i < kEvents; ++i)
            ring.record(event(i, i, static_cast<u8>(i % 5)));
    });
    // do-while: on a single-core host the writer may finish before
    // this loop first runs; still exercise at least one dump.
    u64 dumps = 0;
    do {
        for (const FlightEvent &e : ring.dump(16)) {
            EXPECT_LT(e.id, kEvents);
            EXPECT_LT(e.timestampNs, kEvents);
            EXPECT_LT(e.kind, 5u);
        }
        ++dumps;
    } while (ring.recorded() < kEvents);
    writer.join();
    EXPECT_GT(dumps, 0u);
    // Writer quiesced: the dump is now exact and ordered.
    auto last = ring.dump(8);
    ASSERT_EQ(last.size(), 8u);
    for (std::size_t i = 0; i < last.size(); ++i)
        EXPECT_EQ(last[i].id, kEvents - 8 + i);
}

TEST(FlightRecorderTest, MergedDumpInterleavesRingsByTimestamp)
{
    FlightRecorder recorder(2, 16);
    recorder.ring(0).record(event(0, 100));
    recorder.ring(1).record(event(1, 50));
    recorder.ring(0).record(event(2, 200));
    recorder.ring(1).record(event(3, 150));
    EXPECT_EQ(recorder.recorded(), 4u);

    auto merged = recorder.dumpMerged(3);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].id, 0u); // t=100; t=50 trimmed by last_k.
    EXPECT_EQ(merged[1].id, 3u);
    EXPECT_EQ(merged[2].id, 2u);
}

TEST(FlightRecorderTest, DumpJsonRendersThroughNamer)
{
    FlightRecorder recorder(1, 8);
    recorder.ring(0).record(event(5, 10, 1, 1, 2, 100, 0));

    FlightNamer namer;
    namer.kind = [](u8 k) { return std::string("codec") + char('0' + k); };
    namer.direction = [](u8 d) {
        return std::string(d ? "decompress" : "compress");
    };
    namer.outcome = [](u8 o) { return std::string("class") + char('0' + o); };

    JsonValue dump = recorder.dumpJson(8, namer);
    ASSERT_EQ(dump.at("flight_events").size(), 1u);
    const JsonValue &row = dump.at("flight_events").at(std::size_t{0});
    EXPECT_EQ(row.at("kind").asString(), "codec1");
    EXPECT_EQ(row.at("direction").asString(), "decompress");
    EXPECT_EQ(row.at("outcome").asString(), "class2");
    EXPECT_EQ(dump.at("recorded_total").asU64(), 1u);

    // Default namer prints raw numbers; the document stays renderable.
    JsonValue raw = recorder.dumpJson(8);
    EXPECT_EQ(raw.at("flight_events").at(std::size_t{0}).at("kind").asU64(),
              1u);
}

// --- SpanRecorder ----------------------------------------------------

TEST(SpanRecorderTest, SamplesExactlyKeysOnThePeriod)
{
    SpanRecorder recorder(4);
    for (u64 key = 0; key < 16; ++key) {
        ActiveSpan span = recorder.begin(key, "call", "test");
        span.phase("mid", 10);
        span.end();
    }
    EXPECT_EQ(recorder.sampledCount(), 4u);
    for (const SpanRecord &record : recorder.records())
        EXPECT_EQ(record.key % 4, 0u);
}

TEST(SpanRecorderTest, PeriodZeroDisablesSampling)
{
    SpanRecorder recorder(0);
    EXPECT_FALSE(recorder.shouldSample(0));
    ActiveSpan span = recorder.begin(0, "call", "test");
    EXPECT_FALSE(span.sampled());
    span.end();
    EXPECT_EQ(recorder.sampledCount(), 0u);
}

TEST(SpanRecorderTest, EndIsIdempotentAndDestructorEnds)
{
    SpanRecorder recorder(1);
    {
        ActiveSpan span = recorder.begin(0, "a", "t");
        span.end();
        span.end();
    }
    {
        ActiveSpan implicit = recorder.begin(1, "b", "t");
        (void)implicit; // destructor ends it
    }
    EXPECT_EQ(recorder.sampledCount(), 2u);
}

TEST(SpanRecorderTest, JsonCarriesPhases)
{
    SpanRecorder recorder(1);
    ActiveSpan span = recorder.begin(7, "decompress", "snappy", 3);
    span.phase("feed", 4096);
    span.phase("finish");
    span.end();

    JsonValue doc = recorder.toJson();
    EXPECT_EQ(doc.at("span_period").asU64(), 1u);
    ASSERT_EQ(doc.at("spans").size(), 1u);
    const JsonValue &row = doc.at("spans").at(std::size_t{0});
    EXPECT_EQ(row.at("key").asU64(), 7u);
    EXPECT_EQ(row.at("name").asString(), "decompress");
    EXPECT_EQ(row.at("category").asString(), "snappy");
    EXPECT_EQ(row.at("track").asU64(), 3u);
    ASSERT_EQ(row.at("phases").size(), 2u);
    EXPECT_EQ(row.at("phases").at(std::size_t{0}).at("label").asString(),
              "feed");
    EXPECT_EQ(row.at("phases").at(std::size_t{0}).at("bytes").asU64(),
              4096u);
}

TEST(SpanRecorderTest, PhaseHookRoutesOnlyWhileScopeIsLive)
{
    SpanRecorder recorder(1);
    annotatePhase("orphan", 1); // no scope installed: must be a no-op

    ActiveSpan span = recorder.begin(0, "call", "test");
    {
        SpanPhaseScope scope(span);
        annotatePhase("inside", 7);
    }
    annotatePhase("outside", 9); // scope gone: dropped
    span.end();

    auto records = recorder.records();
    ASSERT_EQ(records.size(), 1u);
    ASSERT_EQ(records[0].phases.size(), 1u);
    EXPECT_EQ(records[0].phases[0].label, "inside");
    EXPECT_EQ(records[0].phases[0].bytes, 7u);
}

TEST(SpanRecorderTest, UnsampledSpanInstallsNoHook)
{
    SpanRecorder recorder(2);
    ActiveSpan span = recorder.begin(1, "call", "test"); // 1 % 2 != 0
    ASSERT_FALSE(span.sampled());
    annotatePhase("dropped", 1);
    span.end();
    EXPECT_EQ(recorder.sampledCount(), 0u);
}

TEST(SpanRecorderTest, ExportsToChromeTraceSession)
{
    SpanRecorder recorder(1);
    ActiveSpan span = recorder.begin(0, "call", "test");
    span.phase("mid");
    span.end();

    TraceSession session;
    recorder.exportTo(session);
    // One "X" span + one instant per phase.
    EXPECT_EQ(session.size(), 2u);
}

TEST(SpanRecorderTest, ConcurrentWorkersRecordEverySampledKey)
{
    SpanRecorder recorder(8);
    constexpr unsigned kThreads = 4;
    constexpr u64 kKeysPerThread = 1000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (u64 i = 0; i < kKeysPerThread; ++i) {
                u64 key = t * kKeysPerThread + i;
                ActiveSpan span = recorder.begin(key, "call", "test", t);
                span.end();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(recorder.sampledCount(), kThreads * kKeysPerThread / 8);
}

// --- MetricsSampler --------------------------------------------------

TEST(MetricsSamplerTest, IntervalsAreDisjointDeltas)
{
    ShardedCounterRegistry registry(1);
    MetricsSampler sampler(registry, 16);

    registry.withShard(0, [](auto &r) {
        r.counter("serve.calls").add(10);
        r.counter("serve.bytes.in").add(1000);
    });
    sampler.sample(1'000'000'000);
    registry.withShard(0, [](auto &r) {
        r.counter("serve.calls").add(5);
        r.counter("serve.bytes.in").add(500);
    });
    sampler.sample(2'000'000'000);

    auto series = sampler.series();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].delta.at("serve.calls"), 10u);
    EXPECT_EQ(series[0].windowNs, 0u); // no previous stamp
    EXPECT_EQ(series[1].delta.at("serve.calls"), 5u);
    EXPECT_EQ(series[1].delta.at("serve.bytes.in"), 500u);
    EXPECT_EQ(series[1].windowNs, 1'000'000'000u);
}

TEST(MetricsSamplerTest, RingRetainsOnlyTheLastCapacityIntervals)
{
    ShardedCounterRegistry registry(1);
    MetricsSampler sampler(registry, 2);
    for (u64 i = 1; i <= 5; ++i)
        sampler.sample(i);
    EXPECT_EQ(sampler.sampleCount(), 5u);
    auto series = sampler.series();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].seq, 4u);
    EXPECT_EQ(series[1].seq, 5u);
}

TEST(MetricsSamplerTest, JsonDerivesThroughputAndLatency)
{
    ShardedCounterRegistry registry(1);
    MetricsSampler sampler(registry, 8);
    sampler.sample(1'000'000'000);
    registry.withShard(0, [](auto &r) {
        r.counter("serve.calls").add(100);
        r.counter("serve.bytes.in").add(50'000'000);
        for (int i = 0; i < 100; ++i)
            r.histogram("serve.latency_ns").record(1000);
    });
    sampler.sample(2'000'000'000); // 1s window, 50 MB

    JsonValue doc = sampler.toJson();
    const JsonValue &series = doc.at("metrics_series");
    EXPECT_EQ(series.at("samples").asU64(), 2u);
    const JsonValue &row = series.at("intervals").at(std::size_t{1});
    EXPECT_NEAR(row.at("mb_per_sec").asDouble(), 50.0, 0.01);
    EXPECT_NEAR(row.at("calls_per_sec").asDouble(), 100.0, 0.01);
    EXPECT_EQ(row.at("latency_count").asU64(), 100u);
    EXPECT_NEAR(row.at("p50_us").asDouble(), 1.0, 0.05);
}

TEST(MetricsSamplerTest, MergesMultipleRegistries)
{
    ShardedCounterRegistry work(1);
    ShardedCounterRegistry runtime(1);
    MetricsSampler sampler({&work, &runtime}, 4);
    work.withShard(0, [](auto &r) { r.counter("serve.calls").add(3); });
    runtime.withShard(0,
                      [](auto &r) { r.counter("serve.batches").add(2); });
    sampler.sample(1);
    auto series = sampler.series();
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].delta.at("serve.calls"), 3u);
    EXPECT_EQ(series[0].delta.at("serve.batches"), 2u);
}

TEST(MetricsSamplerTest, SamplesWhileWorkersWriteConcurrently)
{
    // TSan coverage: live writers race the sampler's mergedSnapshot.
    ShardedCounterRegistry registry(4);
    MetricsSampler sampler(registry, 64);
    std::atomic<bool> stop{false};

    std::vector<std::thread> workers;
    for (unsigned w = 0; w < 4; ++w) {
        workers.emplace_back([&, w] {
            for (int i = 0; i < 5000; ++i)
                registry.withShard(w, [](auto &r) {
                    r.counter("serve.calls").increment();
                });
        });
    }
    std::thread sampling([&] {
        while (!stop.load(std::memory_order_relaxed))
            sampler.sample(SpanRecorder::nowNs());
    });
    for (auto &worker : workers)
        worker.join();
    stop.store(true, std::memory_order_relaxed);
    sampling.join();
    sampler.sample(SpanRecorder::nowNs());

    // Every increment lands in exactly one interval delta.
    u64 total = 0;
    for (const auto &interval : sampler.series())
        total += interval.delta.at("serve.calls");
    // The ring may have evicted early intervals; the surviving deltas
    // can never exceed the true total.
    EXPECT_LE(total, 20000u);
    EXPECT_EQ(registry.mergedSnapshot().at("serve.calls"), 20000u);
}

// --- SLO -------------------------------------------------------------

TEST(SloTest, DimensionedNameFormat)
{
    EXPECT_EQ(dimensionedLatencyName("snappy", "decompress", 12),
              "serve.latency_ns.by.snappy.decompress.sz12");
    EXPECT_EQ(dimensionedLatencyName("zstdlite", "compress", 0),
              "serve.latency_ns.by.zstdlite.compress.sz0");
}

TEST(SloTest, ParsesCompactSpec)
{
    auto target =
        SloTarget::parse("zstdlite:decompress:p999:4096:250us");
    ASSERT_TRUE(target.ok());
    EXPECT_EQ(target.value().codec, "zstdlite");
    EXPECT_EQ(target.value().direction, "decompress");
    EXPECT_DOUBLE_EQ(target.value().quantile, 0.999);
    EXPECT_EQ(target.value().maxCallBytes, 4096u);
    EXPECT_EQ(target.value().thresholdNs, 250'000u);
}

TEST(SloTest, ParsesSuffixesAndWildcards)
{
    auto target = SloTarget::parse("any:any:p50:64KiB:2ms");
    ASSERT_TRUE(target.ok());
    // "any" normalizes to the empty wildcard internally.
    EXPECT_EQ(target.value().codec, "");
    EXPECT_EQ(target.value().direction, "");
    EXPECT_EQ(target.value().maxCallBytes, 65536u);
    EXPECT_EQ(target.value().thresholdNs, 2'000'000u);

    auto unbounded = SloTarget::parse("snappy:compress:p99:0:1s");
    ASSERT_TRUE(unbounded.ok());
    EXPECT_EQ(unbounded.value().maxCallBytes, ~0ull);
    EXPECT_EQ(unbounded.value().thresholdNs, 1'000'000'000u);
}

TEST(SloTest, RejectsMalformedSpecs)
{
    EXPECT_FALSE(SloTarget::parse("").ok());
    EXPECT_FALSE(SloTarget::parse("snappy:decompress:p99").ok());
    EXPECT_FALSE(SloTarget::parse("snappy:decompress:q99:0:1ms").ok());
    EXPECT_FALSE(SloTarget::parse("snappy:decompress:p99:0:fast").ok());
    SloTracker tracker;
    EXPECT_FALSE(tracker.declareSpecs("a:b:p99:0:1ms,,").ok());
}

TEST(SloTest, EvaluatesAgainstDimensionedCells)
{
    CounterRegistry registry;
    // snappy decompress, small calls (class 9: [256, 512)): fast.
    for (int i = 0; i < 100; ++i)
        registry.histogram(dimensionedLatencyName("snappy", "decompress", 9))
            .record(50'000);
    // snappy decompress, large calls (class 17: [64Ki, 128Ki)): slow.
    for (int i = 0; i < 100; ++i)
        registry.histogram(dimensionedLatencyName("snappy", "decompress", 17))
            .record(5'000'000);
    CounterSnapshot snapshot = registry.snapshot();

    SloTracker tracker;
    ASSERT_TRUE(tracker
                    .declareSpecs("snappy:decompress:p99:400:100us,"
                                  "snappy:decompress:p99:0:100us,"
                                  "snappy:compress:p99:0:100us")
                    .ok());
    auto results = tracker.evaluate(snapshot);
    ASSERT_EQ(results.size(), 3u);

    // Size-bounded target sees only the fast cell: passes.
    EXPECT_TRUE(results[0].evaluated);
    EXPECT_EQ(results[0].samples, 100u);
    EXPECT_TRUE(results[0].pass);

    // Unbounded target merges both cells: the slow tail fails it.
    EXPECT_TRUE(results[1].evaluated);
    EXPECT_EQ(results[1].samples, 200u);
    EXPECT_FALSE(results[1].pass);

    // No compress cells exist: not evaluated, no spurious verdict.
    EXPECT_FALSE(results[2].evaluated);
}

TEST(SloTest, FallsBackToAggregateForUnfilteredTargets)
{
    CounterRegistry registry;
    for (int i = 0; i < 10; ++i)
        registry.histogram("serve.latency_ns").record(1000);
    SloTracker tracker;
    ASSERT_TRUE(tracker.declareSpecs("any:any:p99:0:1ms").ok());
    auto results = tracker.evaluate(registry.snapshot());
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].evaluated);
    EXPECT_EQ(results[0].samples, 10u);
    EXPECT_TRUE(results[0].pass);
}

// --- Telemetry hub ---------------------------------------------------

TEST(TelemetryTest, FirstFaultFreezesTheDump)
{
    TelemetryConfig config;
    config.flightRingCapacity = 16;
    config.flightDumpLastK = 8;
    Telemetry telemetry(config, 1);
    telemetry.flight().ring(0).record(event(1, 100));
    telemetry.flight().ring(0).record(event(2, 200));

    EXPECT_FALSE(telemetry.hasFaultDump());
    telemetry.noteFault("first failure", 250);
    telemetry.flight().ring(0).record(event(3, 300));
    telemetry.noteFault("second failure", 350);

    EXPECT_EQ(telemetry.faultCount(), 2u);
    ASSERT_TRUE(telemetry.hasFaultDump());
    JsonValue dump = telemetry.faultDump();
    EXPECT_EQ(dump.at("fault").at("what").asString(), "first failure");
    EXPECT_EQ(dump.at("fault").at("t_ns").asU64(), 250u);
    // Captured before event 3 arrived.
    EXPECT_EQ(dump.at("flight_events").size(), 2u);
}

TEST(TelemetryTest, ZeroRingCapacityDisablesFlight)
{
    TelemetryConfig config;
    config.flightRingCapacity = 0;
    Telemetry telemetry(config, 4);
    EXPECT_FALSE(telemetry.flightEnabled());
    // Faults still count, but with no flight history there is nothing
    // to freeze: no dump is captured.
    telemetry.noteFault("fault without flight data", 1);
    EXPECT_EQ(telemetry.faultCount(), 1u);
    EXPECT_FALSE(telemetry.hasFaultDump());
    EXPECT_TRUE(telemetry.faultDump().isNull());
}

} // namespace
} // namespace cdpu::obs
