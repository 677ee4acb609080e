/**
 * @file
 * cdpud: the compression-as-a-service daemon.
 *
 * The real front end for ROADMAP item 1: where ReplayEngine replays
 * pre-built batches, the Daemon accepts live wire-protocol traffic
 * (serve/wire.h) on unix-domain and TCP listeners, admits it with one
 * timed queue push, and runs it on a serve::Executor — one process, N
 * cores, any registry codec including runtime-admitted pipeline specs.
 *
 * Threading model: one accept thread (poll over the listeners and a
 * shutdown self-pipe), one reader thread per connection, and the
 * executor's W worker threads. Readers parse and admit frames; workers
 * execute through the executor's per-call step and write each response
 * straight from their output scratch (a per-connection write mutex
 * serializes interleaved responses; requests on one connection may
 * complete out of order and are matched by request id). Counters
 * follow the executor's work/runtime split; admission events (drops,
 * quota rejects) land in a separate runtime registry, every
 * drop/reject attributed to its tenant so load shedding is visible per
 * customer, not just in aggregate.
 *
 * Admission control (DESIGN.md §16) is one WorkQueue::push whose
 * wait-until time point the policy picks; no reader polls. The queue
 * is one FIFO of queueCapacity requests shared by every connection, so
 * workers take requests in arrival order across connections:
 *  - block: no deadline — a full queue backpressures the reader (and
 *    so the client's socket) until a worker makes room. Lossless.
 *  - drop: now — a full queue rejects at once with `overloaded`; the
 *    request buffer is freed on the spot.
 *  - deadline: the request's deadline (none if it carries none) — the
 *    reader sleeps on the queue until room or expiry, then rejects
 *    with `deadline_exceeded`; workers re-check expiry before
 *    executing so a stale call never burns codec cycles.
 *
 * Graceful drain (SIGTERM in cdpud): stop accepting, shut the read
 * side of every connection, finish every admitted request, flush
 * responses, then release the workers. No admitted request is ever
 * silently lost.
 */

#ifndef CDPU_SERVE_DAEMON_H_
#define CDPU_SERVE_DAEMON_H_

#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "obs/counters.h"
#include "obs/telemetry.h"
#include "serve/executor.h"
#include "serve/net.h"

namespace cdpu::serve
{

/** What a full queue does to a new request (see file comment). */
enum class AdmissionPolicy
{
    block,
    drop,
    deadline,
};

const char *admissionPolicyName(AdmissionPolicy policy);
Result<AdmissionPolicy> admissionPolicyFromName(
    const std::string &name);

/** Per-tenant byte/call budget; 0 = unlimited. Exhaustion rejects
 *  with quota_exceeded, attributed to the tenant. */
struct TenantQuota
{
    u64 maxCalls = 0;
    u64 maxBytes = 0;
};

struct DaemonConfig
{
    /** Unix-domain listener path; empty disables it. */
    std::string unixPath;
    /** Enable the TCP listener (127.0.0.1); port 0 binds ephemeral —
     *  read the result from Daemon::tcpPort(). */
    bool tcpEnabled = false;
    u16 tcpPort = 0;

    /** Workers sharing the executor's queue. */
    unsigned workers = 2;
    /** Requests the queue holds before admission control engages. */
    std::size_t queueCapacity = 128;
    AdmissionPolicy admission = AdmissionPolicy::block;
    WireLimits limits;

    /** Tenant id -> budget; tenants absent here are unlimited. */
    std::map<u64, TenantQuota> quotas;

    /** Optional hub (not owned; must outlive the daemon): spans
     *  sampled by request id, flight events, a fault dump on the first
     *  failure, and metrics samples every metricsEveryCalls calls. */
    obs::Telemetry *telemetry = nullptr;

    /** Artificial per-call service time (the worker sleeps), used by
     *  tests and benches to build deterministic backlog. 0 in
     *  production. */
    u64 workerDelayNs = 0;
};

/** Final accounting, returned by drain(). */
struct DaemonReport
{
    /** Deterministic work: serve.calls*, serve.bytes.*,
     *  serve.failures, call-size histograms, kernel.* and the
     *  serve.tenant.* bills — the executor's names, so obsctl and the
     *  SLO tracker read replay and daemon output alike. */
    obs::CounterSnapshot work;
    /** Scheduling- and admission-dependent: serve.latency_ns (+
     *  dimensioned cells), serve.batches, serve.daemon.*
     *  admission events. */
    obs::CounterSnapshot runtime;

    /** As in ReplayReport: the metrics series (JSON null unless the
     *  hub samples metrics), its floor(executed / metricsEveryCalls)
     *  sample count, and the spans sampled by request id. */
    obs::JsonValue metricsSeries;
    u64 metricsSamples = 0;
    u64 spansSampled = 0;

    u64 connections = 0;
    u64 requests = 0; ///< Frames that parsed and reached admission.
    u64 executed = 0;
    u64 failed = 0; ///< Executed calls whose codec returned an error.
    u64 dropped = 0;
    u64 quotaRejected = 0;
    u64 deadlineRejected = 0;
    u64 malformed = 0;
};

class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Binds the listeners and starts the accept/worker threads.
     *  Returns only after the daemon is reachable. */
    Status start();

    /**
     * Graceful drain: stop accepting, shut the read side of live
     * connections, execute every admitted request, write every
     * response, join everything, and return the final report.
     * Idempotent; the second call returns the same report.
     */
    DaemonReport drain();

    /** Live merged counter view (safe while serving). */
    obs::CounterSnapshot counters() const;

    const DaemonConfig &config() const { return config_; }
    /** Actual TCP port (after start() with tcpEnabled). */
    u16 tcpPort() const { return boundTcpPort_; }

  private:
    struct Connection;
    struct Job;
    /** Tenant id -> one `<family>.t<id>` handle in one registry shard,
     *  so no per-call path builds a counter name. */
    using TenantCache = std::unordered_map<u64, obs::Counter *>;
    /** A worker's handles into its own shards. */
    struct WorkerCells
    {
        TenantCache calls, bytesIn, expired;
        obs::Counter *responses = nullptr;
    };

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    /** The executor's handler: deadline re-check, tenant billing, the
     *  shared per-call step, and the response write. */
    void execute(Worker &worker, Job &job);

    /** Admission pipeline for one parsed request; always answers the
     *  client exactly once (enqueue or reject). */
    void admit(const std::shared_ptr<Connection> &conn,
               WireRequest &&request);

    void sendError(const std::shared_ptr<Connection> &conn,
                   u64 request_id, WireCode code, std::string message);

    DaemonConfig config_;
    Fd unixListener_;
    Fd tcpListener_;
    u16 boundTcpPort_ = 0;
    Fd wakeRead_, wakeWrite_; ///< Self-pipe: drain() wakes acceptLoop.

    /** Reader-side counters; the reject caches only under its lock. */
    obs::ShardedCounterRegistry admission_{1};
    TenantCache quotaRejects_, drops_, deadlineRejects_;
    std::vector<WorkerCells> workerCells_; ///< By Worker::index().
    std::unique_ptr<Executor<Job>> executor_;

    std::thread acceptThread_;

    mutable std::mutex connMutex_;
    std::vector<std::shared_ptr<Connection>> connections_;

    std::mutex quotaMutex_;
    struct TenantUsage
    {
        u64 calls = 0;
        u64 bytes = 0;
    };
    std::map<u64, TenantUsage> usage_;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    bool drained_ = false;
    DaemonReport finalReport_;
    std::mutex drainMutex_;
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_DAEMON_H_
