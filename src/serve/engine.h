/**
 * @file
 * Fleet-replay engine.
 *
 * Replays a CallStream — the unit of serving work in the paper's fleet
 * analysis (Section 3: independent (de)compression calls, not files) —
 * through a serve::Executor: the engine is the producer (call batches
 * in stream order into the executor's queue) and fills one CallOutcome
 * per call from the executor's per-call step.
 *
 * Determinism contract: replay is lossless — a full queue makes the
 * producer wait, it never drops — so the *work* a replay performs
 * is a pure function of the stream. Every call executes exactly once,
 * so ReplayReport::work (call/byte counters, size histograms, kernel.*
 * fast-path totals) and the per-call outcomes (sizes, hashes) are
 * identical for any worker count, including the no-thread
 * replaySequential() reference. What the scheduler decided —
 * latencies, batches per worker — lands in ReplayReport::runtime and
 * is NOT comparable across runs. The differential tests pin the first
 * contract; the bench reports the second.
 */

#ifndef CDPU_SERVE_ENGINE_H_
#define CDPU_SERVE_ENGINE_H_

#include "common/mem.h"
#include "obs/counters.h"
#include "obs/telemetry.h"
#include "serve/codec_context.h"

namespace cdpu::serve
{

struct EngineConfig
{
    /** Workers sharing the executor's queue. */
    unsigned workers = 1;
    /** Batches the queue holds before the producer waits for room. */
    std::size_t queueCapacity = 16;
    /** Calls per queue item; amortizes queue traffic per the fleet's
     *  small-call distribution (Figure 6: most calls are tiny). */
    std::size_t batchSize = 8;
    /** Keep each call's output bytes (differential tests); costly for
     *  large streams, so benches leave it off and compare hashes. */
    bool recordOutputs = false;
    /**
     * Optional telemetry hub (not owned; must outlive the run). Null
     * is the compiled-in-but-idle configuration: no spans, no flight
     * events, no metrics samples. With a hub: per-call spans sampled
     * on call id (deterministic across worker counts), flight events
     * into the worker's ring, metrics samples every
     * config.metricsEveryCalls completed calls, and a fault dump on
     * the first failed call. Dimensioned latency histograms are
     * recorded either way.
     */
    obs::Telemetry *telemetry = nullptr;
};

/** Per-call result slot; index in ReplayReport::outcomes == call id. */
struct CallOutcome
{
    bool executed = false; ///< Set once the call ran.
    bool ok = false;
    std::size_t outputBytes = 0;
    u64 outputHash = 0; ///< FNV-1a of the output bytes.
    Bytes output;       ///< Populated only with recordOutputs.
};

struct ReplayReport
{
    std::vector<CallOutcome> outcomes;

    /** Deterministic accounting: serve.calls[.codec|.direction],
     *  serve.bytes.{in,out}, serve.failures, call-size histograms,
     *  and the merged kernel.* fast-path totals. Equal across worker
     *  counts. */
    obs::CounterSnapshot work;

    /** Scheduling-dependent accounting: serve.latency_ns (+
     *  dimensioned cells), serve.batches. */
    obs::CounterSnapshot runtime;

    /** Merged per-thread fast-path stats (also exported into work). */
    mem::KernelStats kernel;

    /** Time-series metrics document ({"metrics_series": ...}); JSON
     *  null unless the run's telemetry hub enabled metrics sampling. */
    obs::JsonValue metricsSeries;
    /** Metrics samples taken during this run (deterministic in the
     *  stream: floor(executed calls / metricsEveryCalls)). */
    u64 metricsSamples = 0;
    /** Spans this run sampled (deterministic in the stream under
     *  key-based sampling, independent of worker count). */
    u64 spansSampled = 0;

    double elapsedSeconds = 0.0;
    u64 executed = 0;
    u64 failed = 0;

    /** All accessors read 0 / empty for streams that executed no
     *  calls: CounterSnapshot::at and histogramAt treat never-touched
     *  entries as zero instead of throwing. */
    u64 bytesIn() const { return work.at("serve.bytes.in"); }
    u64 bytesOut() const { return work.at("serve.bytes.out"); }
    const obs::HistogramSnapshot &
    latency() const
    {
        return runtime.histogramAt("serve.latency_ns");
    }
};

class ReplayEngine
{
  public:
    explicit ReplayEngine(const EngineConfig &config);

    /** Replays @p stream to completion (producer-side push, worker
     *  drain, shutdown barrier) and returns the report. The stream
     *  must stay unmodified for the duration. */
    ReplayReport run(const hcb::CallStream &stream);

    const EngineConfig &config() const { return config_; }

  private:
    EngineConfig config_;
};

/**
 * No-thread, no-queue reference replay: one codec context, calls in
 * stream order. The differential oracle the engine is compared to.
 */
ReplayReport replaySequential(const hcb::CallStream &stream,
                              bool record_outputs = false,
                              obs::Telemetry *telemetry = nullptr);

/** FNV-1a 64-bit hash (outcome fingerprints). */
u64 fnv1a(ByteSpan data);

} // namespace cdpu::serve

#endif // CDPU_SERVE_ENGINE_H_
