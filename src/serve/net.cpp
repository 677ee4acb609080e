#include "serve/net.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace cdpu::serve
{

namespace
{

Status
errnoStatus(const std::string &what)
{
    return Status::io(what + ": " + std::strerror(errno));
}

/** Drops the first @p done bytes of @p message's iovecs (and the
 *  parts they empty), so the next call resumes where this one ended. */
void
consume(msghdr &message, std::size_t done)
{
    while (message.msg_iovlen > 0 &&
           (done > 0 || message.msg_iov->iov_len == 0)) {
        iovec &part = *message.msg_iov;
        const std::size_t step = std::min(done, part.iov_len);
        part.iov_base = static_cast<u8 *>(part.iov_base) + step;
        part.iov_len -= step;
        done -= step;
        if (part.iov_len == 0) {
            ++message.msg_iov;
            --message.msg_iovlen;
        }
    }
}

/** Sends every byte of @p parts in order with gathering
 *  sendmsg(MSG_NOSIGNAL) calls, resuming after short writes and EINTR;
 *  consumes @p parts as it goes. */
Status
sendAll(int fd, iovec *parts, std::size_t count)
{
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = count;
    for (consume(message, 0); message.msg_iovlen > 0;) {
        ssize_t put = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("sendmsg");
        }
        consume(message, static_cast<std::size_t>(put));
    }
    return Status::okStatus();
}

/**
 * Fills @p parts in order with scattering recvmsg calls, resuming
 * after short reads and EINTR; consumes @p parts as it goes. Returns
 * the bytes read: all of them, or fewer when the peer closed first.
 */
Result<std::size_t>
recvAll(int fd, iovec *parts, std::size_t count)
{
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = count;
    std::size_t done = 0;
    for (consume(message, 0); message.msg_iovlen > 0;) {
        ssize_t got = ::recvmsg(fd, &message, 0);
        if (got > 0) {
            done += static_cast<std::size_t>(got);
            consume(message, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0)
            return done; // Peer closed; caller judges the boundary.
        if (errno == EINTR)
            continue;
        // A socket shut down for reading mid-drain surfaces as
        // ECONNRESET on some stacks; treat it like EOF so drain
        // semantics match a vanished peer.
        if (errno == ECONNRESET)
            return done;
        return errnoStatus("recvmsg");
    }
    return done;
}

} // namespace

void
Fd::reset()
{
    if (fd_ < 0)
        return;
    // POSIX leaves the descriptor state unspecified after EINTR from
    // close(); Linux guarantees it is closed, so retrying would race a
    // concurrent open(). One call, result ignored, is the portable
    // least-wrong move.
    ::close(fd_);
    fd_ = -1;
}

Result<std::size_t>
readFull(int fd, u8 *out, std::size_t size)
{
    iovec part{out, size};
    return recvAll(fd, &part, 1);
}

Status
writeFull(int fd, const u8 *data, std::size_t size)
{
    iovec part{const_cast<u8 *>(data), size};
    return sendAll(fd, &part, 1);
}

namespace
{

/** Reads a frame's @p size fixed header bytes into @p out. A clean
 *  close before the first byte sets @p outcome.wasEof; a partial
 *  header is a truncation, never a parseable header. */
Status
readHeader(int fd, u8 *out, std::size_t size, FrameReadOutcome &outcome)
{
    outcome.wasEof = false;
    auto got = readFull(fd, out, size);
    CDPU_RETURN_IF_ERROR(got.status());
    if (got.value() == 0)
        outcome.wasEof = true;
    else if (got.value() < size)
        return Status::corrupt(
            "peer closed after " + std::to_string(got.value()) +
            " of " + std::to_string(size) + " header bytes");
    return Status::okStatus();
}

/** Reads a frame body straight into its two fields, already sized to
 *  the header's claims (which the header parse held to the limits):
 *  @p text (spec or message), then @p payload, in one scatter read. */
Status
readBody(int fd, std::string &text, Bytes &payload)
{
    iovec parts[] = {{text.data(), text.size()},
                     {payload.data(), payload.size()}};
    const std::size_t size = text.size() + payload.size();
    auto got = recvAll(fd, parts, std::size(parts));
    CDPU_RETURN_IF_ERROR(got.status());
    if (got.value() < size)
        return Status::corrupt(
            "peer closed after " + std::to_string(got.value()) +
            " of " + std::to_string(size) + " body bytes");
    return Status::okStatus();
}

} // namespace

Status
readRequestFrame(int fd, const WireLimits &limits, WireRequest &request,
                 FrameReadOutcome &outcome)
{
    u8 head[kRequestHeaderBytes];
    CDPU_RETURN_IF_ERROR(readHeader(fd, head, sizeof head, outcome));
    if (outcome.wasEof)
        return Status::okStatus();
    auto header = parseRequestHeader(ByteSpan(head, sizeof head), limits);
    CDPU_RETURN_IF_ERROR(header.status());
    request = requestFromHeader(header.value());
    CDPU_RETURN_IF_ERROR(readBody(fd, request.codecSpec, request.payload));
    return checkCodecSpec(request.codecSpec);
}

Status
readResponseFrame(int fd, const WireLimits &limits,
                  WireResponse &response, FrameReadOutcome &outcome)
{
    u8 head[kResponseHeaderBytes];
    CDPU_RETURN_IF_ERROR(readHeader(fd, head, sizeof head, outcome));
    if (outcome.wasEof)
        return Status::okStatus();
    auto header =
        parseResponseHeader(ByteSpan(head, sizeof head), limits);
    CDPU_RETURN_IF_ERROR(header.status());
    response = responseFromHeader(header.value());
    return readBody(fd, response.message, response.payload);
}

Status
writeRequestFrame(int fd, const WireRequest &request)
{
    u8 head[kRequestHeaderBytes];
    encodeRequestHeader(request, head);
    iovec parts[] = {
        {head, sizeof head},
        {const_cast<char *>(request.codecSpec.data()),
         request.codecSpec.size()},
        {const_cast<u8 *>(request.payload.data()), request.payload.size()},
    };
    return sendAll(fd, parts, std::size(parts));
}

Status
writeResponseFrame(int fd, ResponseHeader header, std::string_view message,
                   ByteSpan payload)
{
    header.messageBytes = message.size();
    header.payloadBytes = payload.size();
    u8 head[kResponseHeaderBytes];
    encodeResponseHeader(header, head);
    iovec parts[] = {
        {head, sizeof head},
        {const_cast<char *>(message.data()), message.size()},
        {const_cast<u8 *>(payload.data()), payload.size()},
    };
    return sendAll(fd, parts, std::size(parts));
}

Result<Fd>
listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        return Status::invalid("unix socket path empty or longer than " +
                               std::to_string(sizeof addr.sun_path - 1) +
                               " bytes");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return errnoStatus("socket(AF_UNIX)");
    ::unlink(path.c_str()); // Stale socket file from a crashed run.
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        return errnoStatus("bind(" + path + ")");
    if (::listen(fd.get(), 128) != 0)
        return errnoStatus("listen(" + path + ")");
    return fd;
}

Result<Fd>
listenTcp(u16 port, u16 &bound_port)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return errnoStatus("socket(AF_INET)");
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        return errnoStatus("bind(tcp:" + std::to_string(port) + ")");
    if (::listen(fd.get(), 128) != 0)
        return errnoStatus("listen(tcp)");

    socklen_t len = sizeof addr;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return errnoStatus("getsockname");
    bound_port = ntohs(addr.sin_port);
    return fd;
}

Result<Fd>
acceptConnection(int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0)
            return Fd(fd);
        if (errno == EINTR)
            continue;
        return errnoStatus("accept");
    }
}

Result<Fd>
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        return Status::invalid("unix socket path empty or too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return errnoStatus("socket(AF_UNIX)");
    for (;;) {
        if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        // After EINTR the connect continues asynchronously; the retry
        // reporting EISCONN means it completed.
        if (errno == EISCONN)
            return fd;
        if (errno == EINTR)
            continue;
        return errnoStatus("connect(" + path + ")");
    }
}

Result<Fd>
connectTcp(const std::string &host, u16 port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        return Status::invalid("connectTcp needs a dotted-quad host, "
                               "got " +
                               host);

    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return errnoStatus("socket(AF_INET)");
    for (;;) {
        if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        if (errno == EISCONN)
            return fd;
        if (errno == EINTR)
            continue;
        return errnoStatus("connect(" + host + ":" +
                           std::to_string(port) + ")");
    }
}

} // namespace cdpu::serve
