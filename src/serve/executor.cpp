#include "serve/executor.h"

#include "codec/obs_bridge.h"
#include "codec/registry.h"
#include "obs/kernel_stats.h"

namespace cdpu::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

u64
nanosBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

const char *
directionLabel(codec::Direction direction)
{
    return direction == codec::Direction::compress ? "compress"
                                                   : "decompress";
}

} // namespace

Worker::Worker(ExecutorCore &core, unsigned index)
    : core_(core), work_(core.work_), runtime_(core.runtime_),
      index_(index)
{
    if (core_.hub_ && core_.hub_->flightEnabled())
        ring_ = &core_.hub_->flight().ring(index_);
}

CallResult
Worker::run(const hcb::ReplayCall &call, Clock::time_point since,
            u64 max_output_bytes)
{
    // Registry names live as long as the process: safe span labels.
    const std::string &codec_name = codec::registry(call.codec).caps.name;
    const bool compressing = call.direction == codec::Direction::compress;

    // Span sampling keys on the call id, so the sampled set is the
    // same at any worker count and in the sequential oracle.
    obs::ActiveSpan span;
    std::optional<obs::SpanPhaseScope> phases;
    if (core_.hub_) {
        span = core_.hub_->spans().begin(call.id, codec_name.c_str(),
                                         directionLabel(call.direction),
                                         index_);
        if (span.sampled())
            phases.emplace(span);
    }
    const Clock::time_point started = Clock::now();
    CallResult result;
    result.status =
        context_.execute(call, result.output, max_output_bytes);
    const Clock::time_point finished = Clock::now();
    phases.reset();
    span.end();
    result.serviceNs = nanosBetween(started, finished);

    const std::size_t kind = static_cast<std::size_t>(call.codec);
    withWork([&](obs::CounterRegistry &registry) {
        registry.counter("serve.calls").increment();
        if (kind >= codecCalls_.size())
            codecCalls_.resize(codec::registeredCodecCount());
        if (!codecCalls_[kind]) // Once per worker and codec.
            codecCalls_[kind] =
                &registry.counter("serve.calls." + codec_name);
        codecCalls_[kind]->increment();
        registry
            .counter(compressing ? "serve.calls.compress"
                                 : "serve.calls.decompress")
            .increment();
        registry.counter("serve.bytes.in").add(call.payload.size());
        registry.histogram("serve.call_bytes_in")
            .record(call.payload.size());
        if (result.status.ok()) {
            registry.counter("serve.bytes.out").add(result.output.size());
            registry.histogram("serve.call_bytes_out")
                .record(result.output.size());
        } else {
            registry.counter("serve.failures").increment();
        }
    });

    const u64 latency_ns = since == Clock::time_point{}
                               ? result.serviceNs
                               : nanosBetween(since, finished);
    const unsigned size_class =
        obs::Histogram::bucketOf(call.payload.size());
    const std::size_t cell =
        (kind * 2 + (compressing ? 0 : 1)) *
            obs::HistogramSnapshot::kBuckets +
        size_class;
    withRuntime([&](obs::CounterRegistry &registry) {
        registry.histogram("serve.latency_ns").record(latency_ns);
        if (cell >= latencyCells_.size())
            latencyCells_.resize(codec::registeredCodecCount() * 2 *
                                 obs::HistogramSnapshot::kBuckets);
        if (!latencyCells_[cell])
            latencyCells_[cell] =
                &registry.histogram(obs::dimensionedLatencyName(
                    codec_name, directionLabel(call.direction),
                    size_class));
        latencyCells_[cell]->record(latency_ns);
    });

    if (core_.hub_)
        recordTelemetry(call, result);
    return result;
}

void
Worker::recordTelemetry(const hcb::ReplayCall &call,
                        const CallResult &result)
{
    if (ring_) {
        obs::FlightEvent event;
        event.id = call.id;
        event.timestampNs = obs::SpanRecorder::nowNs();
        event.kind = codec::flightKind(call.codec);
        event.direction = codec::flightDirection(call.direction);
        event.outcome = codec::flightOutcome(result.status);
        event.bytesIn = call.payload.size();
        event.bytesOut = result.output.size();
        ring_->record(event);
    }
    if (!result.status.ok())
        core_.hub_->noteFault(
            "serve call " + std::to_string(call.id) + " (" +
                codec::registry(call.codec).caps.name + " " +
                directionLabel(call.direction) +
                "): " + result.status.message(),
            obs::SpanRecorder::nowNs());

    // Clocked on calls run, not wall time, so the sample count is a
    // pure function of the work: whichever worker's increment crosses
    // a multiple of metricsEveryCalls takes the sample.
    if (core_.sampler_) {
        const u64 done =
            core_.callsRun_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (done % core_.hub_->config().metricsEveryCalls == 0)
            core_.sampler_->sample(obs::SpanRecorder::nowNs());
    }
}

ExecutorCore::ExecutorCore(unsigned workers, obs::Telemetry *telemetry)
    : work_(workers == 0 ? 1 : workers),
      runtime_(workers == 0 ? 1 : workers), hub_(telemetry),
      spansBefore_(telemetry ? telemetry->spans().sampledCount() : 0)
{
    if (hub_ && hub_->config().metricsEveryCalls != 0)
        sampler_.emplace(
            std::vector<const obs::ShardedCounterRegistry *>{&work_,
                                                             &runtime_},
            hub_->config().metricsCapacity);
    for (unsigned w = 0; w < work_.shardCount(); ++w)
        workers_.push_back(std::make_unique<Worker>(*this, w));
}

obs::CounterSnapshot
ExecutorCore::work() const
{
    obs::CounterSnapshot snapshot = work_.mergedSnapshot();
    obs::CounterRegistry kernel_registry;
    obs::exportKernelStats(kernel_registry, kernel());
    snapshot.merge(kernel_registry.snapshot());
    return snapshot;
}

} // namespace cdpu::serve
