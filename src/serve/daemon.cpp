#include "serve/daemon.h"

#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "codec/registry.h"

namespace cdpu::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** The `<family>.t<tenant>` counter, resolved once per tenant through
 *  @p cache. Call under the lock of the shard @p registry belongs to. */
obs::Counter &
tenantCounter(std::unordered_map<u64, obs::Counter *> &cache,
              obs::CounterRegistry &registry, const char *family,
              u64 tenant)
{
    obs::Counter *&handle = cache[tenant];
    if (!handle)
        handle = &registry.counter(std::string(family) + ".t" +
                                   std::to_string(tenant));
    return *handle;
}

/**
 * Nudges the accept loop's poll via the self-pipe. Plain write(), not
 * writeFull(): the self-pipe is a pipe, and send() on a non-socket
 * fails with ENOTSOCK. The pipe is nonblocking; a full pipe (EAGAIN)
 * means a wake is already pending, which is all a nudge needs.
 */
void
wakeAcceptLoop(int wake_fd)
{
    if (wake_fd < 0)
        return;
    const u8 byte = 1;
    ssize_t wrote;
    do {
        wrote = ::write(wake_fd, &byte, 1);
    } while (wrote < 0 && errno == EINTR);
}

} // namespace

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::block: return "block";
      case AdmissionPolicy::drop: return "drop";
      case AdmissionPolicy::deadline: return "deadline";
    }
    return "unknown";
}

Result<AdmissionPolicy>
admissionPolicyFromName(const std::string &name)
{
    if (name == "block")
        return AdmissionPolicy::block;
    if (name == "drop")
        return AdmissionPolicy::drop;
    if (name == "deadline")
        return AdmissionPolicy::deadline;
    return Status::invalid("unknown admission policy \"" + name +
                           "\" (block, drop, deadline)");
}

/** One live client connection. Shared by the reader thread and any
 *  worker holding a job from it; the write mutex serializes response
 *  frames from concurrent workers. */
struct Daemon::Connection
{
    Fd fd;
    std::mutex writeMutex;
    std::atomic<bool> dead{false};
    std::atomic<bool> readerDone{false};
    std::thread reader;

    /** Writes one frame (writeResponseFrame); after the first failure
     *  the connection is dead and further responses are dropped
     *  silently (the peer is gone — there is nobody to tell). */
    void
    send(const ResponseHeader &header, std::string_view message,
         ByteSpan payload)
    {
        if (dead.load(std::memory_order_relaxed))
            return;
        std::lock_guard<std::mutex> lock(writeMutex);
        if (dead.load(std::memory_order_relaxed))
            return;
        if (!writeResponseFrame(fd.get(), header, message, payload).ok())
            dead.store(true, std::memory_order_relaxed);
    }
};

/** One admitted request travelling reader -> queue -> worker. Owns its
 *  payload; dropping the job (queue rejection, daemon teardown) frees
 *  the buffer with it — rejected calls must not leak. */
struct Daemon::Job
{
    std::shared_ptr<Connection> conn;
    u64 tenantId = 0;
    hcb::ReplayCall call; ///< id = request id; payload bound on the worker.
    Bytes payload;
    bool hasDeadline = false;
    Clock::time_point deadline{};
    Clock::time_point admitted{};
};

Daemon::Daemon(const DaemonConfig &config) : config_(config)
{
    if (config_.workers == 0)
        config_.workers = 1;
    if (config_.queueCapacity == 0)
        config_.queueCapacity = 1;
}

Daemon::~Daemon()
{
    if (started_.load())
        drain();
}

Status
Daemon::start()
{
    if (started_.load())
        return Status::invalid("daemon already started");
    if (config_.unixPath.empty() && !config_.tcpEnabled)
        return Status::invalid("daemon needs a unix path or TCP");

    if (!config_.unixPath.empty()) {
        auto fd = listenUnix(config_.unixPath);
        CDPU_RETURN_IF_ERROR(fd.status());
        unixListener_ = std::move(fd.value());
    }
    if (config_.tcpEnabled) {
        auto fd = listenTcp(config_.tcpPort, boundTcpPort_);
        CDPU_RETURN_IF_ERROR(fd.status());
        tcpListener_ = std::move(fd.value());
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        return Status::io("self-pipe creation failed");
    wakeRead_ = Fd(pipe_fds[0]);
    wakeWrite_ = Fd(pipe_fds[1]);
    // Nonblocking on both ends: wakes are nudges, not data. A full
    // pipe must never block an exiting reader, and the accept loop
    // drains whatever accumulated without risking a blocking read.
    for (int fd : pipe_fds) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags < 0 ||
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
            return Status::io("self-pipe O_NONBLOCK failed");
    }

    workerCells_ = std::vector<WorkerCells>(config_.workers);
    executor_ = std::make_unique<Executor<Job>>(
        config_.workers, config_.queueCapacity, config_.telemetry, "serve",
        [this](Worker &worker, Job &job) { execute(worker, job); });
    acceptThread_ = std::thread([this] { acceptLoop(); });

    started_.store(true);
    return Status::okStatus();
}

void
Daemon::acceptLoop()
{
    for (;;) {
        // Reap readers that finished organically (client went away) so
        // a long-lived daemon does not accumulate joinable threads.
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            for (auto it = connections_.begin();
                 it != connections_.end();) {
                if ((*it)->readerDone.load() &&
                    (*it)->reader.joinable()) {
                    (*it)->reader.join();
                    it = connections_.erase(it);
                } else {
                    ++it;
                }
            }
        }

        pollfd fds[3];
        nfds_t count = 0;
        fds[count++] = {wakeRead_.get(), POLLIN, 0};
        int unix_index = -1, tcp_index = -1;
        if (unixListener_.valid()) {
            unix_index = static_cast<int>(count);
            fds[count++] = {unixListener_.get(), POLLIN, 0};
        }
        if (tcpListener_.valid()) {
            tcp_index = static_cast<int>(count);
            fds[count++] = {tcpListener_.get(), POLLIN, 0};
        }
        int ready = ::poll(fds, count, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if ((fds[0].revents & (POLLIN | POLLHUP)) != 0) {
            // A self-pipe nudge: drain() shutting us down, or a reader
            // that exited and wants its connection reaped (closing the
            // fd the peer is still watching). Consume the pending
            // nudges, then let the loop's reap pass run.
            u8 drained_bytes[64];
            while (::read(fds[0].fd, drained_bytes,
                          sizeof drained_bytes) > 0) {
            }
            if (draining_.load())
                break;
            continue;
        }

        for (int index : {unix_index, tcp_index}) {
            if (index < 0 ||
                (fds[index].revents & POLLIN) == 0)
                continue;
            auto accepted = acceptConnection(fds[index].fd);
            if (!accepted.ok())
                continue;
            auto conn = std::make_shared<Connection>();
            conn->fd = std::move(accepted.value());
            admission_.withShard(0, [](auto &registry) {
                registry.counter("serve.daemon.connections")
                    .increment();
            });
            std::lock_guard<std::mutex> lock(connMutex_);
            connections_.push_back(conn);
            conn->reader = std::thread(
                [this, conn] { connectionLoop(conn); });
        }
    }
}

void
Daemon::sendError(const std::shared_ptr<Connection> &conn,
                  u64 request_id, WireCode code, std::string message)
{
    ResponseHeader header;
    header.requestId = request_id;
    header.code = code;
    if (message.size() > config_.limits.maxMessageBytes)
        message.resize(config_.limits.maxMessageBytes);
    conn->send(header, message, {});
}

void
Daemon::connectionLoop(std::shared_ptr<Connection> conn)
{
    for (;;) {
        WireRequest request;
        FrameReadOutcome outcome;
        Status status = readRequestFrame(conn->fd.get(),
                                         config_.limits, request,
                                         outcome);
        if (!status.ok()) {
            // Grammar violation or mid-frame truncation: the byte
            // stream cannot be resynchronized, so answer (best
            // effort — the request id may not have survived parsing)
            // and hang up.
            admission_.withShard(0, [](auto &registry) {
                registry.counter("serve.daemon.malformed").increment();
            });
            sendError(conn, 0, WireCode::malformedRequest,
                      status.message());
            break;
        }
        if (outcome.wasEof)
            break; // Clean close between frames.
        admission_.withShard(0, [](auto &registry) {
            registry.counter("serve.daemon.requests").increment();
        });
        admit(conn, std::move(request));
    }
    conn->readerDone.store(true);
    // Wake the accept loop so the dead connection is reaped promptly:
    // without the nudge a poll with no listener traffic would hold the
    // fd open indefinitely and the peer would never see the hang-up.
    wakeAcceptLoop(wakeWrite_.get());
}

void
Daemon::admit(const std::shared_ptr<Connection> &conn,
              WireRequest &&request)
{
    auto countAdmission = [&](const char *name, TenantCache *tenant) {
        admission_.withShard(0, [&](obs::CounterRegistry &registry) {
            registry.counter(name).increment();
            if (tenant)
                tenantCounter(*tenant, registry, name, request.tenantId)
                    .increment();
        });
    };

    if (draining_.load()) {
        countAdmission("serve.daemon.shutdown_rejects", nullptr);
        sendError(conn, request.requestId, WireCode::shuttingDown,
                  "daemon is draining");
        return;
    }

    // Resolve the codec spec through the registry. codecFromName
    // returns its errors as Status, but a hostile spec reaching a
    // deeper layer must still not unwind this thread — a serving
    // daemon converts *every* failure into a wire response.
    Result<codec::CodecId> codec_id =
        Status::internal("codec resolution did not run");
    try {
        codec_id = codec::codecFromName(request.codecSpec);
    } catch (const std::exception &e) {
        codec_id = Status::internal(std::string("codecFromName threw: ") +
                                    e.what());
    } catch (...) {
        codec_id = Status::internal("codecFromName threw");
    }
    if (!codec_id.ok()) {
        countAdmission("serve.daemon.unknown_codec", nullptr);
        sendError(conn, request.requestId, WireCode::unknownCodec,
                  codec_id.status().message());
        return;
    }

    // Tenant quota check-and-bill under one lock so concurrent
    // connections of one tenant cannot double-spend the budget.
    const char *quota_reject = nullptr;
    {
        std::lock_guard<std::mutex> lock(quotaMutex_);
        auto quota = config_.quotas.find(request.tenantId);
        if (quota != config_.quotas.end()) {
            TenantUsage &used = usage_[request.tenantId];
            if (quota->second.maxCalls != 0 &&
                used.calls + 1 > quota->second.maxCalls) {
                quota_reject = "tenant call quota exhausted";
            } else if (quota->second.maxBytes != 0 &&
                       used.bytes + request.payload.size() >
                           quota->second.maxBytes) {
                quota_reject = "tenant byte quota exhausted";
            } else {
                used.calls += 1;
                used.bytes += request.payload.size();
            }
        }
    }
    if (quota_reject) {
        countAdmission("serve.daemon.quota_rejects", &quotaRejects_);
        sendError(conn, request.requestId, WireCode::quotaExceeded,
                  quota_reject);
        return;
    }

    Job job;
    job.conn = conn;
    job.tenantId = request.tenantId;
    job.call.id = request.requestId;
    job.call.codec = codec_id.value();
    job.call.direction = request.direction;
    job.call.level = request.level;
    job.call.windowLog = request.windowLog;
    job.payload = std::move(request.payload);
    job.admitted = Clock::now();
    // A relative deadline beyond the clock's range is no deadline: the
    // sum would overflow (a u64 above INT64_MAX even turns negative)
    // and expire the request on arrival.
    const std::chrono::nanoseconds horizon =
        Clock::time_point::max() - job.admitted;
    if (request.deadlineNs != 0 &&
        request.deadlineNs < static_cast<u64>(horizon.count())) {
        job.hasDeadline = true;
        job.deadline = job.admitted +
                       std::chrono::nanoseconds(
                           static_cast<i64>(request.deadlineNs));
    }

    // One push decides admission: it waits for room until a time point
    // the policy picks. block: no deadline (lossless; a full queue
    // backpressures this reader and so the client socket). drop: now
    // (shed at once). deadline: as long as the request itself is
    // willing to wait. A failed push leaves the job, and so its
    // payload buffer, here to die with this frame.
    Clock::time_point until = kNoDeadline;
    if (config_.admission == AdmissionPolicy::drop)
        until = job.admitted;
    else if (config_.admission == AdmissionPolicy::deadline &&
             job.hasDeadline)
        until = job.deadline;
    if (executor_->push(job, until))
        return;

    if (executor_->closed()) {
        countAdmission("serve.daemon.shutdown_rejects", nullptr);
        sendError(conn, job.call.id, WireCode::shuttingDown,
                  "daemon is draining");
    } else if (config_.admission == AdmissionPolicy::drop) {
        // Attribute the shed load to the tenant it belonged to.
        countAdmission("serve.daemon.drops", &drops_);
        sendError(conn, job.call.id, WireCode::overloaded,
                  "queue full (drop policy)");
    } else {
        countAdmission("serve.daemon.deadline_rejects",
                       &deadlineRejects_);
        sendError(conn, job.call.id, WireCode::deadlineExceeded,
                  "deadline expired before admission");
    }
}

void
Daemon::execute(Worker &worker, Job &job)
{
    WorkerCells &cells = workerCells_[worker.index()];
    if (job.hasDeadline && Clock::now() >= job.deadline) {
        worker.withRuntime([&](obs::CounterRegistry &registry) {
            const char *name = "serve.daemon.deadline_expired";
            registry.counter(name).increment();
            tenantCounter(cells.expired, registry, name, job.tenantId)
                .increment();
        });
        sendError(job.conn, job.call.id, WireCode::deadlineExceeded,
                  "deadline expired in queue");
        return;
    }

    if (config_.workerDelayNs != 0)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(config_.workerDelayNs));

    // serve.latency_ns runs from admission to codec completion (the
    // response write is not included). The output limit is the wire's
    // payload cap, so the server never builds a response the client
    // must reject: an over-limit decompress claim is refused before it
    // allocates, an over-limit compressed output is a resource error.
    job.call.payload = ByteSpan(job.payload.data(), job.payload.size());
    const CallResult result = worker.run(job.call, job.admitted,
                                         config_.limits.maxPayloadBytes);
    worker.withWork([&](obs::CounterRegistry &registry) {
        tenantCounter(cells.calls, registry, "serve.tenant.calls",
                      job.tenantId)
            .increment();
        tenantCounter(cells.bytesIn, registry, "serve.tenant.bytes_in",
                      job.tenantId)
            .add(job.payload.size());
    });
    worker.withRuntime([&](obs::CounterRegistry &registry) {
        if (!cells.responses)
            cells.responses = &registry.counter("serve.daemon.responses");
        cells.responses->increment();
    });

    if (!result.status.ok()) {
        sendError(job.conn, job.call.id, wireCodeFor(result.status),
                  result.status.message());
        return;
    }
    // Straight from the worker's scratch to the socket, uncopied: the
    // view stays valid until this worker's next call.
    ResponseHeader header;
    header.requestId = job.call.id;
    header.serviceNs = result.serviceNs;
    job.conn->send(header, {}, result.output);
}

obs::CounterSnapshot
Daemon::counters() const
{
    obs::CounterSnapshot merged = admission_.mergedSnapshot();
    if (executor_) {
        merged.merge(executor_->work());
        merged.merge(executor_->runtime());
    }
    return merged;
}

DaemonReport
Daemon::drain()
{
    std::lock_guard<std::mutex> drain_lock(drainMutex_);
    if (drained_)
        return finalReport_;
    drained_ = true;
    if (!started_.load())
        return finalReport_;

    draining_.store(true);

    // Wake and retire the accept loop; no new connections after this.
    wakeAcceptLoop(wakeWrite_.get());
    if (acceptThread_.joinable())
        acceptThread_.join();
    unixListener_.reset();
    tcpListener_.reset();
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());

    // Shut the read side of every live connection: readers finish the
    // frame-admission they are in, then see EOF and exit. In-flight
    // (admitted) requests stay queued and will be answered.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns = connections_;
    }
    for (auto &conn : conns)
        ::shutdown(conn->fd.get(), SHUT_RD);
    for (auto &conn : conns)
        if (conn->reader.joinable())
            conn->reader.join();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connections_.clear();
    }

    // Close the queue only after every producer (reader) is gone:
    // the executor then finishes exactly when the queue is drained, so
    // every admitted job executes before the workers exit.
    executor_->finish();
    executor_->report(finalReport_);
    finalReport_.runtime.merge(admission_.mergedSnapshot());
    const obs::CounterSnapshot &run = finalReport_.runtime;
    const obs::CounterSnapshot &work = finalReport_.work;
    finalReport_.connections = run.at("serve.daemon.connections");
    finalReport_.requests = run.at("serve.daemon.requests");
    finalReport_.executed = work.at("serve.calls");
    finalReport_.failed = work.at("serve.failures");
    finalReport_.dropped = run.at("serve.daemon.drops");
    finalReport_.quotaRejected = run.at("serve.daemon.quota_rejects");
    finalReport_.deadlineRejected =
        run.at("serve.daemon.deadline_rejects") +
        run.at("serve.daemon.deadline_expired");
    finalReport_.malformed = run.at("serve.daemon.malformed");
    return finalReport_;
}

} // namespace cdpu::serve
