/**
 * @file
 * EINTR-safe socket transport under the cdpud wire protocol.
 *
 * Every syscall path here survives signal interruption and partial
 * transfers: readFull/writeFull loop until the requested byte count is
 * consumed (retrying EINTR, continuing after short reads/writes), so a
 * framing-layer caller never sees a torn header or half a payload —
 * the failure modes collapse to "got everything", "peer closed at a
 * frame boundary", or an error. Writes use MSG_NOSIGNAL so a vanished
 * peer is an ioError, not a process-killing SIGPIPE.
 *
 * readRequestFrame/readResponseFrame compose the loops with the wire
 * grammar: read exactly the fixed header, validate it (the oversized
 * claims are rejected before the body is read or allocated), then read
 * exactly the declared body. A peer that disappears mid-frame yields
 * corruptData with a byte count; a peer that closes *between* frames
 * yields the distinguishable `wasEof` outcome.
 */

#ifndef CDPU_SERVE_NET_H_
#define CDPU_SERVE_NET_H_

#include <string_view>

#include "serve/wire.h"

namespace cdpu::serve
{

/** RAII file descriptor (sockets, pipe ends). Movable, not copyable. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    Fd(Fd &&other) noexcept : fd_(other.release()) {}
    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    ~Fd() { reset(); }

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /** Closes the descriptor (retrying EINTR per POSIX semantics). */
    void reset();

  private:
    int fd_ = -1;
};

/**
 * Reads exactly @p size bytes into @p out, looping over short reads
 * and EINTR. Returns the byte count actually read: @p size on success,
 * less only when the peer closed mid-transfer (0 when it closed before
 * the first byte — the clean between-frames EOF). Errors other than
 * interruption map to ioError.
 */
Result<std::size_t> readFull(int fd, u8 *out, std::size_t size);

/** Writes exactly @p size bytes, looping over short writes and EINTR;
 *  MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE. */
Status writeFull(int fd, const u8 *data, std::size_t size);

/** A frame read that can distinguish "peer closed between frames". */
struct FrameReadOutcome
{
    bool wasEof = false; ///< Clean close before any header byte.
};

/**
 * Reads one request frame: header, validation, then exactly the
 * declared body. On clean between-frames EOF returns ok with
 * @p outcome.wasEof set and @p request untouched. A partial header or
 * body (peer died mid-frame) is corruptData — the partial bytes are
 * never parsed.
 */
Status readRequestFrame(int fd, const WireLimits &limits,
                        WireRequest &request,
                        FrameReadOutcome &outcome);

/** Reads one response frame; same truncation semantics. */
Status readResponseFrame(int fd, const WireLimits &limits,
                         WireResponse &response,
                         FrameReadOutcome &outcome);

/** Encodes and writes one frame. */
Status writeRequestFrame(int fd, const WireRequest &request);

/**
 * Writes one response frame from its parts, as writeFull does: the
 * fixed header (@p header, its byte counts taken from @p message and
 * @p payload), then the message and the payload gathered from where
 * they lie — no frame buffer, and one sendmsg unless the socket takes
 * a short write.
 */
Status writeResponseFrame(int fd, ResponseHeader header,
                          std::string_view message, ByteSpan payload);

/** Binds and listens on a unix-domain socket at @p path (unlinking a
 *  stale socket file first). */
Result<Fd> listenUnix(const std::string &path);

/** Binds and listens on TCP 127.0.0.1:@p port (0 = ephemeral);
 *  @p bound_port reports the actual port. */
Result<Fd> listenTcp(u16 port, u16 &bound_port);

/** Accepts one connection; retries EINTR. */
Result<Fd> acceptConnection(int listen_fd);

Result<Fd> connectUnix(const std::string &path);
Result<Fd> connectTcp(const std::string &host, u16 port);

} // namespace cdpu::serve

#endif // CDPU_SERVE_NET_H_
