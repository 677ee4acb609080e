/**
 * @file
 * Serve-layer battery: queue semantics (FIFO order, shared capacity,
 * timed pushes, shutdown drain) and the engine's determinism contract
 * — any worker count must replay a stream to byte-identical per-call
 * outputs and an identical deterministic ("work") counter snapshot
 * versus the no-thread sequential reference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "codec/obs_bridge.h"
#include "codec/registry.h"
#include "corpus/generators.h"
#include "serve/engine.h"
#include "serve/queue.h"
#include "serve/stream_builder.h"
#include "snappy/decompress.h"
#include "zstdlite/decompress.h"

namespace cdpu::serve
{
namespace
{

// --- WorkQueue --------------------------------------------------------

/** push() of a temporary: the queue takes its item as an lvalue. */
template <typename T>
bool
pushValue(WorkQueue<T> &queue, T item,
          QueueClock::time_point until = kNoDeadline)
{
    return queue.push(item, until);
}

TEST(WorkQueueTest, PopsInArrivalOrder)
{
    WorkQueue<int> queue(8);
    EXPECT_TRUE(pushValue(queue, 1));
    EXPECT_TRUE(pushValue(queue, 2));
    EXPECT_TRUE(pushValue(queue, 3));
    int item = 0;
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 1);
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 2);
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 3);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(WorkQueueTest, ExpiredDeadlineRejectsWhenFull)
{
    // A time point already passed is load shedding: no wait at all.
    // One producer fills the whole capacity; the next push is shed.
    WorkQueue<int> queue(4);
    const QueueClock::time_point now = QueueClock::now();
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(pushValue(queue, i, now));
    EXPECT_FALSE(pushValue(queue, 4, now)); // full -> shed
    EXPECT_EQ(queue.size(), 4u);
}

TEST(WorkQueueTest, CapacityIsSharedAcrossProducers)
{
    // No producer owns a slice of the capacity: two racing producers
    // shedding at once get exactly `capacity` accepts between them.
    constexpr std::size_t kCapacity = 8;
    WorkQueue<int> queue(kCapacity);
    std::atomic<std::size_t> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p)
        producers.emplace_back([&, p] {
            for (std::size_t i = 0; i < kCapacity; ++i)
                if (pushValue(queue, p, QueueClock::now()))
                    ++accepted;
        });
    for (std::thread &producer : producers)
        producer.join();
    EXPECT_EQ(accepted.load(), kCapacity);
    EXPECT_EQ(queue.size(), kCapacity);

    // One pop makes room for one waiting timed push.
    std::atomic<bool> admitted{false};
    std::thread waiter([&] {
        admitted = pushValue(
            queue, 2, QueueClock::now() + std::chrono::seconds(30));
    });
    int item = -1;
    EXPECT_TRUE(queue.pop(item));
    waiter.join();
    EXPECT_TRUE(admitted.load());
    EXPECT_EQ(queue.size(), kCapacity);
}

TEST(WorkQueueTest, FailedPushLeavesTheItemIntact)
{
    // The daemon answers a rejected request from the job it still
    // holds; a failed push must not consume it.
    WorkQueue<std::string> queue(1);
    const QueueClock::time_point now = QueueClock::now();
    std::string keep = "payload-survives-rejection";
    EXPECT_TRUE(queue.push(keep, now)); // Moved in: queue now full.
    keep = "payload-survives-rejection";
    EXPECT_FALSE(queue.push(keep, now));
    EXPECT_EQ(keep, "payload-survives-rejection");

    std::string out;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_TRUE(queue.push(keep, now)); // Room again: move succeeds.
    queue.close();
    EXPECT_FALSE(queue.push(out, now)); // Closed always rejects.
}

TEST(WorkQueueTest, ClosedQueueRejectsEvenWithRoom)
{
    WorkQueue<std::string> queue(8);
    queue.close();
    std::string keep = "never-enqueued";
    EXPECT_FALSE(queue.push(keep, kNoDeadline));
    EXPECT_EQ(keep, "never-enqueued");
    EXPECT_FALSE(queue.push(keep, QueueClock::now()));
    EXPECT_EQ(keep, "never-enqueued");
    EXPECT_EQ(queue.size(), 0u);
    std::string out;
    EXPECT_FALSE(queue.pop(out));
}

TEST(WorkQueueTest, TimedPushGivesUpAtItsDeadline)
{
    WorkQueue<std::string> queue(1);
    ASSERT_TRUE(pushValue<std::string>(queue, "occupant"));
    const auto wait = std::chrono::milliseconds(20);
    const QueueClock::time_point started = QueueClock::now();
    std::string keep = "late";
    EXPECT_FALSE(queue.push(keep, started + wait));
    EXPECT_GE(QueueClock::now() - started, wait);
    EXPECT_EQ(keep, "late");
    EXPECT_EQ(queue.size(), 1u);
}

TEST(WorkQueueTest, PopBeforeTheDeadlineAdmitsTheTimedPush)
{
    WorkQueue<int> queue(1);
    ASSERT_TRUE(pushValue(queue, 1));
    std::atomic<bool> waiting{false};
    std::thread consumer([&] {
        while (!waiting.load())
            std::this_thread::yield();
        // Most likely parked by now; either way the push must get in.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        int item = 0;
        EXPECT_TRUE(queue.pop(item));
        EXPECT_EQ(item, 1);
    });
    int second = 2;
    waiting = true;
    // Generous: the pop, not the deadline, must end this wait.
    EXPECT_TRUE(
        queue.push(second, QueueClock::now() + std::chrono::seconds(30)));
    consumer.join();
    int item = 0;
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 2);
}

TEST(WorkQueueTest, CloseWakesAPushWithNoDeadline)
{
    WorkQueue<int> queue(1);
    ASSERT_TRUE(pushValue(queue, 1));
    std::atomic<bool> returned{false};
    std::atomic<bool> accepted{true};
    std::thread producer([&] {
        accepted = pushValue(queue, 2); // Full: waits for close().
        returned = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(returned.load());
    queue.close();
    producer.join();
    EXPECT_FALSE(accepted.load());
    int item = 0;
    EXPECT_TRUE(queue.pop(item)); // The occupant still drains.
    EXPECT_EQ(item, 1);
    EXPECT_FALSE(queue.pop(item));
}

TEST(WorkQueueTest, CloseDrainsAcceptedItems)
{
    WorkQueue<int> queue(16);
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(pushValue(queue, i));
    queue.close();
    int seen = 0;
    int item = 0;
    while (queue.pop(item))
        ++seen;
    EXPECT_EQ(seen, 6); // nothing accepted is lost on shutdown
}

TEST(WorkQueueTest, PopBlocksUntilPushOrClose)
{
    WorkQueue<int> queue(4);
    std::atomic<int> got{-1};
    std::thread consumer([&] {
        int item = 0;
        if (queue.pop(item))
            got = item;
    });
    // The consumer parks; a push must wake it.
    pushValue(queue, 99);
    consumer.join();
    EXPECT_EQ(got.load(), 99);

    std::atomic<bool> returned{false};
    std::thread drained([&] {
        int item = 0;
        EXPECT_FALSE(queue.pop(item));
        returned = true;
    });
    queue.close();
    drained.join();
    EXPECT_TRUE(returned.load());
}

TEST(WorkQueueTest, NoDeadlinePushWaitsForRoom)
{
    WorkQueue<int> queue(1);
    EXPECT_TRUE(pushValue(queue, 1));
    std::atomic<bool> second_accepted{false};
    std::thread producer([&] {
        // Waits on the full queue.
        second_accepted = pushValue(queue, 2);
    });
    int item = 0;
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 1);
    producer.join();
    EXPECT_TRUE(second_accepted.load());
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 2);
}

TEST(WorkQueueTest, ConcurrentProducersConsumersLoseNothing)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 250;
    WorkQueue<int> queue(kConsumers * 16);
    std::atomic<long> sum{0};
    std::atomic<long> count{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            int item = 0;
            while (queue.pop(item)) {
                sum += item;
                ++count;
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                pushValue(queue, p * kPerProducer + i);
        });
    }
    for (auto &producer : producers)
        producer.join();
    queue.close();
    for (auto &consumer : consumers)
        consumer.join();

    long n = kProducers * kPerProducer;
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- Engine determinism ----------------------------------------------

StreamConfig
smallStreamConfig()
{
    StreamConfig config;
    config.calls = 72;
    config.minCallBytes = 512;
    config.maxCallBytes = 12 * kKiB;
    config.seed = 7;
    return config;
}

void
expectHistogramsEqual(const obs::CounterSnapshot &a,
                      const obs::CounterSnapshot &b)
{
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (const auto &[name, hist] : a.histograms) {
        auto it = b.histograms.find(name);
        ASSERT_NE(it, b.histograms.end()) << name;
        EXPECT_EQ(hist.count, it->second.count) << name;
        EXPECT_EQ(hist.sum, it->second.sum) << name;
        EXPECT_EQ(hist.min, it->second.min) << name;
        EXPECT_EQ(hist.max, it->second.max) << name;
        EXPECT_EQ(hist.buckets, it->second.buckets) << name;
    }
}

/** The core differential assertion: parallel == sequential, bytes and
 *  deterministic counters both. */
void
expectReplayMatchesReference(const ReplayReport &parallel,
                             const ReplayReport &reference)
{
    ASSERT_EQ(parallel.outcomes.size(), reference.outcomes.size());
    EXPECT_EQ(parallel.executed, reference.executed);
    EXPECT_EQ(parallel.failed, 0u);
    for (std::size_t i = 0; i < parallel.outcomes.size(); ++i) {
        const CallOutcome &got = parallel.outcomes[i];
        const CallOutcome &want = reference.outcomes[i];
        ASSERT_TRUE(got.executed) << "call " << i;
        EXPECT_EQ(got.ok, want.ok) << "call " << i;
        EXPECT_EQ(got.outputBytes, want.outputBytes) << "call " << i;
        EXPECT_EQ(got.outputHash, want.outputHash) << "call " << i;
        EXPECT_EQ(got.output, want.output) << "call " << i;
    }
    EXPECT_EQ(parallel.work.counters, reference.work.counters);
    expectHistogramsEqual(parallel.work, reference.work);
}

TEST(ReplayEngineTest, SequentialReferenceIsDeterministic)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport first = replaySequential(stream.value(), true);
    ReplayReport second = replaySequential(stream.value(), true);
    EXPECT_EQ(first.failed, 0u);
    expectReplayMatchesReference(second, first);
}

TEST(ReplayEngineTest, WorkerCountsAreByteIdenticalToSequential)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport reference = replaySequential(stream.value(), true);
    ASSERT_EQ(reference.failed, 0u);
    ASSERT_EQ(reference.executed, stream.value().size());

    for (unsigned workers : {1u, 2u, 8u}) {
        EngineConfig config;
        config.workers = workers;
        config.recordOutputs = true;
        ReplayEngine engine(config);
        ReplayReport report = engine.run(stream.value());
        SCOPED_TRACE(testing::Message() << workers << " workers");
        expectReplayMatchesReference(report, reference);
    }
}

TEST(ReplayEngineTest, StreamingCallMixMatchesSequential)
{
    // Half the calls run through codec sessions in RNG-sized chunks;
    // the engine's parallel == sequential contract must hold over the
    // mixed execution paths exactly as over whole-buffer calls.
    StreamConfig config = smallStreamConfig();
    config.calls = 96;
    config.streamingFraction = 0.5;
    auto stream = buildMixedStream(config);
    ASSERT_TRUE(stream.ok());

    std::size_t streaming_calls = 0;
    for (const hcb::ReplayCall &call : stream.value().calls())
        streaming_calls += call.streaming ? 1 : 0;
    ASSERT_GT(streaming_calls, 16u) << "mix lost its streaming half";
    ASSERT_LT(streaming_calls, stream.value().size());

    ReplayReport reference = replaySequential(stream.value(), true);
    ASSERT_EQ(reference.failed, 0u);
    ASSERT_EQ(reference.executed, stream.value().size());
    for (unsigned workers : {2u, 8u}) {
        EngineConfig engine_config;
        engine_config.workers = workers;
        engine_config.recordOutputs = true;
        ReplayEngine engine(engine_config);
        SCOPED_TRACE(testing::Message() << workers << " workers");
        expectReplayMatchesReference(engine.run(stream.value()),
                                     reference);
    }
}

TEST(CodecContextTest, StreamingExecutionMatchesWholeBuffer)
{
    Rng rng(11);
    Bytes payload = corpus::generateMixed(40 * kKiB, rng, 4 * kKiB);
    CodecContext context;
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        hcb::ReplayCall whole;
        whole.codec = id;
        whole.direction = codec::Direction::compress;
        whole.payload = ByteSpan(payload.data(), payload.size());
        ByteSpan out;
        ASSERT_TRUE(context.execute(whole, out).ok());
        Bytes whole_frame(out.begin(), out.end());

        hcb::ReplayCall streamed = whole;
        streamed.streaming = true;
        streamed.chunkBytes = 1024;
        ASSERT_TRUE(context.execute(streamed, out).ok());
        Bytes streamed_frame(out.begin(), out.end());

        // Chunk granularity must not show in the bytes.
        streamed.chunkBytes = 77;
        ASSERT_TRUE(context.execute(streamed, out).ok());
        EXPECT_EQ(Bytes(out.begin(), out.end()), streamed_frame);

        if (codec::registry(id).caps.streamingSharesBufferFormat) {
            EXPECT_EQ(streamed_frame, whole_frame);
        } else {
            // Different container (snappy framing): the streamed
            // frame must still decode back through a streaming call.
            hcb::ReplayCall decode;
            decode.codec = id;
            decode.direction = codec::Direction::decompress;
            decode.payload = ByteSpan(streamed_frame.data(),
                                      streamed_frame.size());
            decode.streaming = true;
            decode.chunkBytes = 512;
            ASSERT_TRUE(context.execute(decode, out).ok());
            EXPECT_EQ(Bytes(out.begin(), out.end()), payload);
        }
    }
}

TEST(ReplayEngineTest, EmptyStreamReportReadsZeroes)
{
    // A replay that executed nothing has untouched counters; every
    // report accessor must read 0/empty. Regression: the latency
    // accessor path used histograms.at(), which throws on a stream
    // that recorded no samples.
    hcb::CallStream empty;
    ReplayReport sequential = replaySequential(empty);
    EXPECT_EQ(sequential.bytesIn(), 0u);
    EXPECT_EQ(sequential.bytesOut(), 0u);
    EXPECT_EQ(sequential.latency().count, 0u);

    ReplayEngine engine(EngineConfig{});
    ReplayReport parallel = engine.run(empty);
    EXPECT_EQ(parallel.executed, 0u);
    EXPECT_EQ(parallel.bytesIn(), 0u);
    EXPECT_EQ(parallel.bytesOut(), 0u);
    EXPECT_EQ(parallel.latency().count, 0u);
}

TEST(CodecContextTest, FailedCallDoesNotPoisonReusedScratch)
{
    Rng rng(31);
    Bytes payload = corpus::generateMixed(16 * kKiB, rng, 4 * kKiB);
    hcb::ReplayCall compress;
    compress.codec = codec::CodecId::zstdlite;
    compress.direction = codec::Direction::compress;
    compress.payload = ByteSpan(payload.data(), payload.size());

    CodecContext fresh;
    ByteSpan out;
    ASSERT_TRUE(fresh.execute(compress, out).ok());
    Bytes expected(out.begin(), out.end());

    // Same call on a context that just failed a decode: the failure
    // must leave no partial output behind and the next call must be
    // byte-identical to a fresh context's.
    CodecContext reused;
    ASSERT_TRUE(reused.execute(compress, out).ok());
    Bytes junk = {0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa};
    hcb::ReplayCall bad;
    bad.codec = codec::CodecId::zstdlite;
    bad.direction = codec::Direction::decompress;
    bad.payload = ByteSpan(junk.data(), junk.size());
    ASSERT_FALSE(reused.execute(bad, out).ok());
    EXPECT_EQ(reused.lastOutputSize(), 0u);

    ASSERT_TRUE(reused.execute(compress, out).ok());
    EXPECT_EQ(Bytes(out.begin(), out.end()), expected);
}

TEST(CodecContextTest, LimitRejectLeavesNoOutputInEitherDirection)
{
    // The output limit bounds both directions: a decompress claim over
    // it is corruptData before the scratch grows, a compressed output
    // over it is bufferTooSmall once measured. Either way the call
    // leaves no output behind.
    Rng rng(41);
    Bytes payload = corpus::generate(corpus::DataClass::randomBytes,
                                     8 * kKiB, rng);
    CodecContext context;
    for (codec::CodecId id : codec::allCodecs()) {
        for (bool streaming : {false, true}) {
            SCOPED_TRACE(testing::Message() << codec::codecName(id)
                                            << " streaming "
                                            << streaming);
            hcb::ReplayCall compress;
            compress.codec = id;
            compress.direction = codec::Direction::compress;
            compress.payload = ByteSpan(payload.data(), payload.size());
            compress.streaming = streaming;
            compress.chunkBytes = 1000;
            ByteSpan out;
            ASSERT_TRUE(context.execute(compress, out).ok());
            const Bytes frame(out.begin(), out.end());

            Status over = context.execute(compress, out, frame.size() - 1);
            EXPECT_EQ(over.code(), StatusCode::bufferTooSmall)
                << over.toString();
            EXPECT_EQ(context.lastOutputSize(), 0u);
            ASSERT_TRUE(context.execute(compress, out, frame.size()).ok());
            EXPECT_EQ(Bytes(out.begin(), out.end()), frame);

            hcb::ReplayCall decompress = compress;
            decompress.direction = codec::Direction::decompress;
            decompress.payload = ByteSpan(frame.data(), frame.size());
            Status claim =
                context.execute(decompress, out, payload.size() - 1);
            EXPECT_EQ(claim.code(), StatusCode::corruptData)
                << claim.toString();
            EXPECT_EQ(context.lastOutputSize(), 0u);
            ASSERT_TRUE(
                context.execute(decompress, out, payload.size()).ok());
            EXPECT_EQ(Bytes(out.begin(), out.end()), payload);
        }
    }
}

TEST(ReplayEngineTest, SmallBatchesAndTinyQueueStillMatch)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport reference = replaySequential(stream.value(), true);

    EngineConfig config;
    config.workers = 4;
    config.batchSize = 1;  // max queue traffic
    config.queueCapacity = 8; // producer feels backpressure
    config.recordOutputs = true;
    ReplayEngine engine(config);
    expectReplayMatchesReference(engine.run(stream.value()), reference);
}

TEST(ReplayEngineTest, ShutdownDrainExecutesEveryAcceptedCall)
{
    // Tiny queue: the producer stalls repeatedly and close() arrives
    // while workers still hold queued batches. Every call must still
    // execute exactly once.
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    EngineConfig config;
    config.workers = 2;
    config.queueCapacity = 2;
    config.batchSize = 3;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());
    EXPECT_EQ(report.executed, stream.value().size());
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.work.at("serve.calls"), stream.value().size());
}

TEST(ReplayEngineTest, WorkCountersCoverEveryCodecAndDirection)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 64;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());
    ReplayEngine engine(EngineConfig{});
    ReplayReport report = engine.run(stream.value());
    EXPECT_EQ(report.work.at("serve.calls"), 64u);
    for (codec::CodecId codec : codec::allCodecs()) {
        EXPECT_GT(
            report.work.at("serve.calls." + codec::codecName(codec)), 0u)
            << codec::codecName(codec);
    }
    EXPECT_GT(report.work.at("serve.calls.compress"), 0u);
    EXPECT_GT(report.work.at("serve.calls.decompress"), 0u);
    EXPECT_GT(report.work.at("serve.bytes.in"), 0u);
    EXPECT_GT(report.work.at("serve.bytes.out"), 0u);
    // Fast-path kernel totals must survive the per-thread merge.
    EXPECT_GT(report.work.at("kernel.mem.wild_copy_bytes"), 0u);
}

// --- Telemetry --------------------------------------------------------

std::set<u64>
sampledKeys(const obs::SpanRecorder &spans)
{
    std::set<u64> keys;
    for (const obs::SpanRecord &record : spans.records())
        keys.insert(record.key);
    return keys;
}

TEST(ReplayTelemetryTest, SpanSetIsDeterministicAcrossWorkerCounts)
{
    // Key-based sampling: the sampled set is a pure function of the
    // stream (call ids), so sequential and every worker count must
    // sample the exact same keys — not just the same count.
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 96;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 8;
    obs::Telemetry reference_tele(tc, 1, codec::codecFlightNamer());
    ReplayReport reference =
        replaySequential(stream.value(), false, &reference_tele);
    EXPECT_EQ(reference.spansSampled, 96u / 8u);
    const std::set<u64> reference_keys =
        sampledKeys(reference_tele.spans());
    ASSERT_EQ(reference_keys.size(), 12u);
    for (u64 key : reference_keys)
        EXPECT_EQ(key % 8, 0u) << key;

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << workers << " workers");
        obs::Telemetry tele(tc, workers, codec::codecFlightNamer());
        EngineConfig config;
        config.workers = workers;
        config.telemetry = &tele;
        ReplayEngine engine(config);
        ReplayReport report = engine.run(stream.value());
        EXPECT_EQ(report.spansSampled, reference.spansSampled);
        EXPECT_EQ(sampledKeys(tele.spans()), reference_keys);
    }
}

TEST(ReplayTelemetryTest, AttachedHubDoesNotPerturbWorkCounters)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport reference = replaySequential(stream.value(), true);
    ASSERT_EQ(reference.failed, 0u);

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 4;
    tc.metricsEveryCalls = 16;
    obs::Telemetry tele(tc, 4, codec::codecFlightNamer());
    EngineConfig config;
    config.workers = 4;
    config.recordOutputs = true;
    config.telemetry = &tele;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());
    // Telemetry observes the work; it must not change it.
    expectReplayMatchesReference(report, reference);
}

TEST(ReplayTelemetryTest, MetricsSampleCountIsDeterministic)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 96;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 0;
    tc.metricsEveryCalls = 10;
    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << workers << " workers");
        obs::Telemetry tele(tc, workers, codec::codecFlightNamer());
        EngineConfig config;
        config.workers = workers;
        config.telemetry = &tele;
        ReplayEngine engine(config);
        ReplayReport report = engine.run(stream.value());
        // floor(96 / 10): the trigger fires on every 10th completion
        // regardless of which worker crosses the threshold.
        EXPECT_EQ(report.metricsSamples, 9u);
        ASSERT_TRUE(report.metricsSeries.has("metrics_series"));
        EXPECT_EQ(report.metricsSeries.at("metrics_series")
                      .at("samples")
                      .asU64(),
                  9u);
    }
}

TEST(ReplayTelemetryTest, DimensionedCellsCoverEveryCall)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 64;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 0;
    obs::Telemetry tele(tc, 2, codec::codecFlightNamer());
    // The cells are recorded with or without a hub (the SLO tracker
    // reads them from any drained report).
    obs::Telemetry *const hubs[] = {&tele, nullptr};
    for (obs::Telemetry *hub : hubs) {
        SCOPED_TRACE(hub ? "hub attached" : "no hub");
        EngineConfig config;
        config.workers = 2;
        config.telemetry = hub;
        ReplayEngine engine(config);
        ReplayReport report = engine.run(stream.value());
        ASSERT_EQ(report.executed, 64u);

        // Every executed call lands in exactly one
        // serve.latency_ns.by.<codec>.<direction>.sz<class> cell.
        u64 total = 0;
        for (const auto &[name, hist] : report.runtime.histograms) {
            if (name.rfind("serve.latency_ns.by.", 0) == 0)
                total += hist.count;
        }
        EXPECT_EQ(total, report.executed);
    }
}

TEST(ReplayTelemetryTest, FailedCallFreezesFlightDump)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 24;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());
    // Append a decompress call whose payload is garbage: the codec
    // must classify it dataError, and the hub must freeze the flight
    // history around the failure.
    const u64 bad_id = stream.value().append(
        codec::CodecId::snappy, codec::Direction::decompress,
        Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff});

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 0;
    obs::Telemetry tele(tc, 2, codec::codecFlightNamer());
    EngineConfig config;
    config.workers = 2;
    config.telemetry = &tele;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(tele.faultCount(), 1u);
    ASSERT_TRUE(tele.hasFaultDump());

    const obs::JsonValue dump = tele.faultDump();
    ASSERT_TRUE(dump.has("flight_events"));
    ASSERT_TRUE(dump.has("fault"));
    bool found = false;
    for (const obs::JsonValue &event :
         dump.at("flight_events").items()) {
        if (event.at("id").asU64() != bad_id)
            continue;
        found = true;
        EXPECT_EQ(event.at("kind").asString(), "snappy");
        EXPECT_EQ(event.at("direction").asString(), "decompress");
        EXPECT_EQ(event.at("outcome").asString(), "data_error");
    }
    EXPECT_TRUE(found)
        << "failing call missing from flight dump: "
        << dump.dump(0);
}

// --- CallStream / appendSuite ----------------------------------------

TEST(CallStreamTest, BatchesPartitionTheStream)
{
    hcb::CallStream stream;
    for (int i = 0; i < 10; ++i)
        stream.append(codec::CodecId::snappy,
                      codec::Direction::compress,
                      Bytes{static_cast<u8>(i)});
    auto batches = stream.batches(4);
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0].count, 4u);
    EXPECT_EQ(batches[1].count, 4u);
    EXPECT_EQ(batches[2].count, 2u);
    std::size_t covered = 0;
    for (const auto &batch : batches) {
        for (std::size_t i = 0; i < batch.count; ++i)
            EXPECT_EQ(batch.calls[i].id, covered + i);
        covered += batch.count;
    }
    EXPECT_EQ(covered, stream.size());
}

TEST(CallStreamTest, AppendSuitePreCompressesDecompressCalls)
{
    hcb::Suite suite;
    suite.codec = codec::CodecId::snappy;
    suite.direction = codec::Direction::decompress;
    hcb::BenchmarkFile file;
    file.data = Bytes(4096, u8{'a'});
    file.codec = codec::CodecId::snappy;
    file.direction = codec::Direction::decompress;
    suite.files.push_back(file);
    file.codec = codec::CodecId::zstdlite;
    file.level = 3;
    file.windowLog = 16;
    suite.files.push_back(file);

    hcb::CallStream stream;
    ASSERT_TRUE(hcb::appendSuite(stream, suite).ok());
    ASSERT_EQ(stream.size(), 2u);

    // Each payload must be a real frame its codec can decode back to
    // the original file body.
    auto snappy_out = snappy::decompress(stream.calls()[0].payload);
    ASSERT_TRUE(snappy_out.ok());
    EXPECT_EQ(snappy_out.value(), suite.files[0].data);
    auto zstd_out = zstdlite::decompress(stream.calls()[1].payload);
    ASSERT_TRUE(zstd_out.ok());
    EXPECT_EQ(zstd_out.value(), suite.files[1].data);
}

TEST(StreamBuilderTest, SameConfigSameStream)
{
    auto first = buildMixedStream(smallStreamConfig());
    auto second = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(first.value().size(), second.value().size());
    for (std::size_t i = 0; i < first.value().size(); ++i) {
        const hcb::ReplayCall &a = first.value().calls()[i];
        const hcb::ReplayCall &b = second.value().calls()[i];
        EXPECT_EQ(a.codec, b.codec);
        EXPECT_EQ(a.direction, b.direction);
        EXPECT_EQ(fnv1a(a.payload), fnv1a(b.payload)) << "call " << i;
    }
}

TEST(StreamBuilderTest, RejectsDegenerateConfigs)
{
    StreamConfig config;
    config.calls = 0;
    EXPECT_FALSE(buildMixedStream(config).ok());
    config = StreamConfig{};
    config.minCallBytes = 64;
    config.maxCallBytes = 32;
    EXPECT_FALSE(buildMixedStream(config).ok());
}

} // namespace
} // namespace cdpu::serve
