#include "load.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "serve/client.h"

namespace fleetbench
{

Result<std::unique_ptr<DaemonProcess>>
DaemonProcess::spawn(const std::string &binary, const std::string &socket,
                     unsigned workers)
{
    const std::string workers_arg = std::to_string(workers);
    const char *argv[] = {binary.c_str(), "--socket", socket.c_str(),
                          "--workers", workers_arg.c_str(), nullptr};
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        return Status::io(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        // Only async-signal-safe calls between fork and exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::dup2(devnull, STDERR_FILENO);
        }
        ::execv(binary.c_str(), const_cast<char *const *>(argv));
        ::_exit(127);
    }
    std::unique_ptr<DaemonProcess> process(new DaemonProcess(pid));

    // Reachable once a connect succeeds; the probe hangs up at once.
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    for (;;) {
        if (serve::DaemonClient::connectToUnix(socket).ok())
            return process;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            process->pid_ = -1;
            return Status::io("cdpud exited during start-up (" + binary +
                              ")");
        }
        if (Clock::now() > give_up)
            return Status::io("cdpud did not start listening on " +
                              socket);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

DaemonProcess::~DaemonProcess()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
}

Result<double>
DaemonProcess::stop()
{
    ::kill(pid_, SIGTERM);
    int status = 0;
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    pid_t waited;
    do {
        waited = ::wait4(pid_, &status, 0, &usage);
    } while (waited < 0 && errno == EINTR);
    pid_ = -1;
    if (waited < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return Status::io("cdpud did not drain and exit cleanly");
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace
{

serve::WireRequest
makeRequest(const Call &call, u64 request_id)
{
    serve::WireRequest request;
    request.requestId = request_id;
    request.codecSpec = codec::codecName(call.codec);
    request.direction = call.direction;
    request.level = call.level;
    request.windowLog = call.windowLog;
    const ByteSpan payload = call.payload();
    request.payload.assign(payload.begin(), payload.end());
    return request;
}

/** Per-connection tallies, merged after the threads join. */
struct Tally
{
    u64 sent = 0, ok = 0, failed = 0, mismatches = 0;
    u64 compressRaw = 0, compressOut = 0, decompressRaw = 0;
    u64 serviceNs = 0;
    std::vector<LoadResult::Response> responses;
    std::vector<double> lagUs;
    std::vector<LoadResult::Span> spans;
};

/** Shared request dispenser: the next call index, until the request
 *  count or the time budget runs out. */
class Dispenser
{
  public:
    Dispenser(std::size_t max_requests, Clock::time_point deadline)
        : maxRequests_(max_requests), deadline_(deadline)
    {}

    /** Next global request index, or false when the run is over. */
    bool
    next(u64 &index)
    {
        if (maxRequests_ == 0 && Clock::now() >= deadline_)
            return false;
        index = next_.fetch_add(1);
        return maxRequests_ == 0 || index < maxRequests_;
    }

  private:
    std::size_t maxRequests_;
    Clock::time_point deadline_;
    std::atomic<u64> next_{0};
};

/** Checks one response against @p call and books it into @p tally. */
void
check(const Call &call, serve::WireResponse &response, u64 sent_ns,
      u64 at_ns, Tally &tally, std::atomic<bool> &flip_pending)
{
    if (response.code != serve::WireCode::ok) {
        ++tally.failed;
        return;
    }
    if (flip_pending.exchange(false) && !response.payload.empty())
        response.payload[0] ^= 0x01;
    const ByteSpan expected = call.expected();
    if (response.payload.size() != expected.size() ||
        !std::equal(expected.begin(), expected.end(),
                    response.payload.begin())) {
        ++tally.mismatches;
        ++tally.failed;
        return;
    }
    ++tally.ok;
    tally.serviceNs += response.serviceNs;
    tally.responses.push_back({sent_ns, at_ns,
                               static_cast<u32>(call.raw.size()),
                               call.compresses()});
    if (call.compresses()) {
        tally.compressRaw += call.raw.size();
        tally.compressOut += response.payload.size();
    } else {
        tally.decompressRaw += call.raw.size();
    }
}

/** Closed loop on one connection: keep options.window requests in
 *  flight; each response releases the next request. */
void
closedLoop(serve::DaemonClient &client, const std::vector<Call> &calls,
           const LoadOptions &options, Dispenser &dispenser, Tally &tally,
           std::atomic<bool> &flip_pending, Status &error)
{
    struct InFlight
    {
        u64 id;
        u64 sentNs;
    };
    std::vector<InFlight> in_flight;
    auto sendNext = [&]() -> bool {
        u64 index = 0;
        if (!dispenser.next(index))
            return false;
        const u64 sent_ns = nowNs();
        Status s = client.send(makeRequest(
            calls[(options.firstRequest + index) % calls.size()],
            index + 1));
        if (!s.ok()) {
            error = s;
            return false;
        }
        ++tally.sent;
        in_flight.push_back({index + 1, sent_ns});
        return true;
    };
    while (in_flight.size() < options.window && sendNext()) {
    }
    while (!in_flight.empty()) {
        auto response = client.receive();
        if (!response.ok()) {
            error = response.status();
            tally.failed += in_flight.size();
            return;
        }
        const u64 now = nowNs();
        auto it = std::find_if(in_flight.begin(), in_flight.end(),
                               [&](const InFlight &f) {
                                   return f.id ==
                                          response.value().requestId;
                               });
        if (it == in_flight.end()) {
            error = Status::corrupt("response to an unknown request id");
            return;
        }
        const InFlight done = *it;
        in_flight.erase(it);
        if (options.recordSpans)
            tally.spans.push_back({done.id - 1, done.sentNs, now});
        check(calls[(options.firstRequest + done.id - 1) % calls.size()],
              response.value(), done.sentNs, now, tally, flip_pending);
        if (error.ok())
            sendNext();
    }
}

/** Open loop on one connection: request k (global) is due at
 *  start + k / rate; this connection sends every connections-th. */
void
openLoop(serve::DaemonClient &client, const std::vector<Call> &calls,
         const LoadOptions &options, unsigned connection,
         Clock::time_point start, Clock::time_point deadline,
         Tally &tally, std::atomic<bool> &flip_pending, Status &error)
{
    std::atomic<u64> sent{0};
    std::atomic<bool> sender_done{false};
    Status send_error;
    const u64 start_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count());
    auto dueNs = [&](u64 k) {
        return start_ns +
               static_cast<u64>(static_cast<double>(k) * 1e9 /
                                options.rate);
    };

    // Growing these while timing would stall the loop on a copy.
    const auto expected = static_cast<std::size_t>(
        options.maxRequests ? options.maxRequests
                            : options.rate * options.seconds + 1);
    tally.responses.reserve(expected / options.connections + 1);
    tally.lagUs.reserve(expected / options.connections + 1);

    std::thread sender([&] {
        // Sleep precision bounds the schedule; tighten the slack.
        ::prctl(PR_SET_TIMERSLACK, 1UL);
        for (u64 j = 0;; ++j) {
            const u64 k = j * options.connections + connection;
            if (options.maxRequests && k >= options.maxRequests)
                break;
            const u64 due = dueNs(k);
            const auto due_point =
                Clock::time_point(std::chrono::nanoseconds(due));
            if (!options.maxRequests && due_point >= deadline)
                break;
            std::this_thread::sleep_until(due_point);
            tally.lagUs.push_back(static_cast<double>(nowNs() - due) / 1e3);
            Status s =
                client.send(makeRequest(calls[k % calls.size()], k + 1));
            if (!s.ok()) {
                send_error = s;
                break;
            }
            sent.fetch_add(1);
        }
        sender_done.store(true);
        // EOF after the last request: the daemon answers everything
        // admitted and hangs up, which ends the receive loop below.
        client.finishSending();
    });

    u64 received = 0;
    for (;;) {
        if (sender_done.load() && received == sent.load())
            break;
        auto response = client.receive();
        if (!response.ok()) {
            if (!(sender_done.load() && received == sent.load()))
                error = response.status();
            break;
        }
        const u64 now = nowNs();
        const u64 k = response.value().requestId - 1;
        const u64 due = dueNs(k);
        if (options.recordSpans)
            tally.spans.push_back({k, due, now});
        ++received;
        check(calls[k % calls.size()], response.value(), due, now, tally,
              flip_pending);
    }
    sender.join();
    tally.sent = sent.load();
    if (received < tally.sent)
        tally.failed += tally.sent - received;
    if (!send_error.ok())
        error = send_error;
}

} // namespace

std::vector<double>
rttUs(const std::vector<LoadResult::Response> &rs)
{
    std::vector<double> out;
    out.reserve(rs.size());
    for (const LoadResult::Response &r : rs)
        out.push_back(static_cast<double>(r.atNs - r.sentNs) / 1e3);
    return out;
}

Result<LoadResult>
runLoad(const std::string &socket, const std::vector<Call> &calls,
        const LoadOptions &options)
{
    if (calls.empty())
        return Status::invalid("no calls to send");
    std::vector<serve::DaemonClient> clients;
    for (unsigned c = 0; c < options.connections; ++c) {
        auto client = serve::DaemonClient::connectToUnix(socket);
        if (!client.ok())
            return client.status();
        clients.push_back(std::move(client.value()));
    }

    std::vector<Tally> tallies(options.connections);
    std::vector<Status> errors(options.connections, Status::okStatus());
    std::atomic<bool> flip_pending{options.flipFirstResponseByte};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::nanoseconds(
                    static_cast<u64>(options.seconds * 1e9));
    Dispenser dispenser(options.maxRequests, deadline);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < options.connections; ++c)
        threads.emplace_back([&, c] {
            if (options.rate > 0)
                openLoop(clients[c], calls, options, c, start, deadline,
                         tallies[c], flip_pending, errors[c]);
            else
                closedLoop(clients[c], calls, options, dispenser,
                           tallies[c], flip_pending, errors[c]);
        });
    for (auto &thread : threads)
        thread.join();

    LoadResult result;
    result.seconds = secondsBetween(start, Clock::now());
    result.startNs = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count());
    for (const Tally &t : tallies) {
        result.sent += t.sent;
        result.ok += t.ok;
        result.failed += t.failed;
        result.mismatches += t.mismatches;
        result.compressRawBytes += t.compressRaw;
        result.compressOutBytes += t.compressOut;
        result.decompressRawBytes += t.decompressRaw;
        result.serviceNs += t.serviceNs;
        result.responses.insert(result.responses.end(),
                                t.responses.begin(), t.responses.end());
        result.lagUs.insert(result.lagUs.end(), t.lagUs.begin(),
                            t.lagUs.end());
        result.spans.insert(result.spans.end(), t.spans.begin(),
                            t.spans.end());
    }
    for (const Status &e : errors)
        CDPU_RETURN_IF_ERROR(e);
    return result;
}

} // namespace fleetbench
