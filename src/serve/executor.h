/**
 * @file
 * The one executor behind every serving front end.
 *
 * Replay (ReplayEngine), cdpud (Daemon) and container decode all run
 * the paper's fleet shape of work (Section 3): many small, independent
 * codec calls fanned over cores. Executor owns that machinery once —
 * worker threads, one bounded FIFO WorkQueue, one CodecContext per
 * worker, the work/runtime counter split, the kernel.* fold, the batch
 * count and all per-call telemetry — and a front end is a producer
 * (push, which waits for room until a time point the producer picks)
 * plus an item handler run on a worker. The no-thread oracles
 * run one Worker on the calling thread through ExecutorCore::runAs(),
 * so oracle and pool share one per-call step.
 */

#ifndef CDPU_SERVE_EXECUTOR_H_
#define CDPU_SERVE_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include "common/mem.h"
#include "obs/counters.h"
#include "obs/telemetry.h"
#include "serve/codec_context.h"
#include "serve/queue.h"

namespace cdpu::serve
{

class ExecutorCore;

/** What the per-call step hands back to its front end. */
struct CallResult
{
    Status status;
    ByteSpan output;   ///< Empty on failure; valid until the next call.
    u64 serviceNs = 0; ///< Codec execution time alone.
};

/** One worker's slot. Only the thread running as this worker uses it. */
class Worker
{
  public:
    Worker(ExecutorCore &core, unsigned index);

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    unsigned index() const { return index_; }
    CodecContext &context() { return context_; }

    /**
     * The per-call step every front end shares: executes @p call and
     * bills serve.calls*, serve.bytes.* and the call-size histograms
     * (work), serve.latency_ns and its (codec, direction, size-class)
     * cell (runtime), and with a hub the span sampled by call id, the
     * flight event, the fault note and the call-clocked metrics
     * sample. Latency runs from @p since (default: the call's start)
     * to codec completion. @p max_output_bytes is the call's output
     * limit (CodecContext::execute); a call over it is a failure.
     */
    CallResult run(const hcb::ReplayCall &call,
                   std::chrono::steady_clock::time_point since = {},
                   u64 max_output_bytes = kMaxDecodedBytes);

    /** Runs @p fn(obs::CounterRegistry &) under this worker's work
     *  (deterministic) or runtime (scheduling-dependent) shard. */
    template <typename Fn> void withWork(Fn &&fn)
    {
        work_.withShard(index_, std::forward<Fn>(fn));
    }
    template <typename Fn> void withRuntime(Fn &&fn)
    {
        runtime_.withShard(index_, std::forward<Fn>(fn));
    }

  private:
    void recordTelemetry(const hcb::ReplayCall &call,
                         const CallResult &result);

    ExecutorCore &core_;
    obs::ShardedCounterRegistry &work_;
    obs::ShardedCounterRegistry &runtime_;
    const unsigned index_;
    CodecContext context_;
    obs::FlightRing *ring_ = nullptr;
    /** Handles resolved once per worker, never per call: by codec id
     *  (serve.calls.<codec>) and by (codec * 2 + direction) * kBuckets
     *  + size class (latency cells). Both tables grow with the live
     *  registry, which runtime-admitted pipeline specs extend. */
    std::vector<obs::Counter *> codecCalls_;
    std::vector<obs::Histogram *> latencyCells_;
};

/** Workers plus everything they share; usable without threads. */
class ExecutorCore
{
  public:
    /** @p workers is clamped to >= 1; @p telemetry (not owned) may be
     *  null, the idle configuration. */
    ExecutorCore(unsigned workers, obs::Telemetry *telemetry);

    ExecutorCore(const ExecutorCore &) = delete;
    ExecutorCore &operator=(const ExecutorCore &) = delete;

    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Runs @p body(Worker &) as worker @p i on the calling thread and
     *  folds this thread's fast-path stats delta into kernel(). */
    template <typename Body>
    void
    runAs(unsigned i, Body &&body)
    {
        const mem::KernelStats before = mem::kernelStats();
        body(*workers_[i]);
        const mem::KernelStats delta = mem::kernelStats().diff(before);
        std::lock_guard<std::mutex> lock(kernelMutex_);
        kernel_.merge(delta);
    }

    /** Merged work counters with the kernel.* fold (complete once the
     *  workers finished); safe while they run, like runtime(). */
    obs::CounterSnapshot work() const;
    obs::CounterSnapshot runtime() const { return runtime_.mergedSnapshot(); }
    mem::KernelStats
    kernel() const
    {
        std::lock_guard<std::mutex> lock(kernelMutex_);
        return kernel_;
    }

    /** Copies work(), runtime(), the spans sampled since construction
     *  and the metrics series (floor(calls / metricsEveryCalls)
     *  samples; JSON null without a sampler) into a ReplayReport or a
     *  DaemonReport. */
    template <typename Report>
    void
    report(Report &out) const
    {
        out.work = work();
        out.runtime = runtime();
        if (hub_)
            out.spansSampled = hub_->spans().sampledCount() - spansBefore_;
        if (sampler_) {
            out.metricsSamples = sampler_->sampleCount();
            out.metricsSeries = sampler_->toJson();
        }
    }

  private:
    friend class Worker;

    obs::ShardedCounterRegistry work_;
    obs::ShardedCounterRegistry runtime_;
    obs::Telemetry *const hub_;
    const u64 spansBefore_;
    std::optional<obs::MetricsSampler> sampler_;
    std::atomic<u64> callsRun_{0};
    mutable std::mutex kernelMutex_;
    mem::KernelStats kernel_;
    std::vector<std::unique_ptr<Worker>> workers_;
};

/**
 * The worker pool: threads start in the constructor, each drains the
 * queue as one Worker and hands every item to @p handler; finish() (or
 * the destructor) closes the queue and joins them after the last
 * accepted item ran. The items each worker ran land in the runtime
 * registry as `<scope>.batches`.
 */
template <typename Item> class Executor : public ExecutorCore
{
  public:
    using Handler = std::function<void(Worker &, Item &)>;

    /** One queue of @p queue_capacity items shared by every worker. */
    Executor(unsigned workers, std::size_t queue_capacity,
             obs::Telemetry *telemetry, const std::string &scope,
             Handler handler)
        : ExecutorCore(workers, telemetry), queue_(queue_capacity),
          batchesName_(scope + ".batches"), handler_(std::move(handler))
    {
        try {
            for (unsigned w = 0; w < workerCount(); ++w)
                threads_.emplace_back([this, w] {
                    runAs(w, [this](Worker &worker) { loop(worker); });
                });
        } catch (...) {
            finish();
            throw;
        }
    }

    ~Executor() { finish(); }

    /** WorkQueue::push. */
    bool push(Item &item, QueueClock::time_point until)
    {
        return queue_.push(item, until);
    }

    /** True once finish() closed the queue: every push fails. */
    bool closed() const { return queue_.isClosed(); }

    /** Idempotent; call from the producer side only. */
    void
    finish()
    {
        queue_.close();
        for (std::thread &thread : threads_)
            if (thread.joinable())
                thread.join();
    }

  private:
    void
    loop(Worker &worker)
    {
        Item item{};
        u64 batches = 0;
        while (queue_.pop(item)) {
            ++batches;
            handler_(worker, item);
            item = Item{}; // Release what the item owns promptly.
        }
        worker.withRuntime([&](obs::CounterRegistry &registry) {
            registry.counter(batchesName_).add(batches);
        });
    }

    WorkQueue<Item> queue_;
    const std::string batchesName_;
    Handler handler_;
    std::vector<std::thread> threads_; ///< Last: uses everything above.
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_EXECUTOR_H_
