/**
 * @file
 * Wire load against a cdpud socket: the cdpud child process, and the
 * closed- and open-loop request generators. One client process drives
 * every connection; each response is compared byte for byte with the
 * call's reference bytes.
 */

#ifndef FLEETBENCH_LOAD_H_
#define FLEETBENCH_LOAD_H_

#include <sys/types.h>

#include "bench.h"
#include "workloads.h"

namespace fleetbench
{

/** cdpud run as a child process, so its peak RSS is the server's. */
class DaemonProcess
{
  public:
    /** Starts @p binary on unix socket @p socket and waits until the
     *  socket accepts connections. */
    static Result<std::unique_ptr<DaemonProcess>>
    spawn(const std::string &binary, const std::string &socket,
          unsigned workers);

    ~DaemonProcess();
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** SIGTERM (graceful drain), wait; returns the child's peak RSS in
     *  MiB. Fails if the child did not exit cleanly. */
    Result<double> stop();

    /** CPU seconds the child has run so far, all its threads. */
    double cpuSeconds() const { return processCpuSeconds(pid_); }

  private:
    explicit DaemonProcess(pid_t pid) : pid_(pid) {}
    pid_t pid_ = -1;
};

struct LoadOptions
{
    unsigned connections = 2;
    /** Closed loop: requests kept in flight per connection. */
    unsigned window = 8;
    /** Open loop when > 0: calls/s across all connections, each
     *  request timed from its due send time. */
    double rate = 0;
    /** Stop issuing new requests after this long. */
    double seconds = 1;
    /** If nonzero, issue exactly this many requests (calls[i % n])
     *  instead of running for a time. */
    std::size_t maxRequests = 0;
    /** Closed loop: request i sends calls[(firstRequest + i) % n]. */
    std::size_t firstRequest = 0;
    /** Traced runs: keep one span per request in LoadResult::spans. */
    bool recordSpans = false;
    /** Self-test: flip one byte of the first response before the
     *  comparison, which the gate must report. */
    bool flipFirstResponseByte = false;
};

struct LoadResult
{
    u64 sent = 0;
    u64 ok = 0;
    u64 failed = 0;     ///< Error responses, mismatches, lost replies.
    u64 mismatches = 0; ///< OK responses whose bytes differ.
    double seconds = 0; ///< First send to last response.
    u64 compressRawBytes = 0;
    u64 compressOutBytes = 0;
    u64 decompressRawBytes = 0;
    u64 serviceNs = 0; ///< Sum of server-reported service time.
    u64 startNs = 0;   ///< When the first request was due.

    /** One correct response. */
    struct Response
    {
        u64 sentNs;   ///< Send (closed loop) or due (open loop) time.
        u64 atNs;     ///< Response received.
        u32 rawBytes; ///< Uncompressed bytes of the call.
        bool compress;
    };
    std::vector<Response> responses;
    std::vector<double> lagUs; ///< Open loop: send time minus due time.

    struct Span
    {
        u64 request; ///< Global request index; calls[request % n].
        u64 startNs; ///< Send (closed loop) or due (open loop) time.
        u64 endNs;   ///< Response received.
    };
    std::vector<Span> spans;
};

Result<LoadResult> runLoad(const std::string &socket,
                           const std::vector<Call> &calls,
                           const LoadOptions &options);

/** Round-trip times in microseconds, in response order. */
std::vector<double> rttUs(const std::vector<LoadResult::Response> &rs);

} // namespace fleetbench

#endif // FLEETBENCH_LOAD_H_
