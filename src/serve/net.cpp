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

/** Sends every byte of @p parts in order with gathering
 *  sendmsg(MSG_NOSIGNAL) calls, resuming after short writes and EINTR;
 *  consumes @p parts as it goes. */
Status
sendAll(int fd, iovec *parts, std::size_t count)
{
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = count;
    for (;;) {
        while (message.msg_iovlen > 0 && message.msg_iov->iov_len == 0) {
            ++message.msg_iov;
            --message.msg_iovlen;
        }
        if (message.msg_iovlen == 0)
            return Status::okStatus();
        ssize_t put = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("sendmsg");
        }
        for (auto left = static_cast<std::size_t>(put); left > 0;) {
            iovec &part = *message.msg_iov;
            const std::size_t step = std::min(left, part.iov_len);
            part.iov_base = static_cast<u8 *>(part.iov_base) + step;
            part.iov_len -= step;
            left -= step;
            if (part.iov_len == 0) {
                ++message.msg_iov;
                --message.msg_iovlen;
            }
        }
    }
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
    std::size_t done = 0;
    while (done < size) {
        ssize_t got = ::recv(fd, out + done, size - done, 0);
        if (got > 0) {
            done += static_cast<std::size_t>(got);
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
        return errnoStatus("recv");
    }
    return done;
}

Status
writeFull(int fd, const u8 *data, std::size_t size)
{
    iovec part{const_cast<u8 *>(data), size};
    return sendAll(fd, &part, 1);
}

namespace
{

/** Shared header+body frame read; Parse/Assemble come from wire.h. */
template <typename Header, typename Message>
Status
readFrame(int fd, std::size_t header_bytes,
          Result<Header> (*parse_header)(ByteSpan,
                                         const WireLimits &),
          Result<Message> (*assemble)(const Header &, ByteSpan),
          const WireLimits &limits, Message &message,
          FrameReadOutcome &outcome)
{
    outcome.wasEof = false;
    u8 header_buf[kRequestHeaderBytes > kResponseHeaderBytes
                      ? kRequestHeaderBytes
                      : kResponseHeaderBytes];
    auto got = readFull(fd, header_buf, header_bytes);
    CDPU_RETURN_IF_ERROR(got.status());
    if (got.value() == 0) {
        outcome.wasEof = true;
        return Status::okStatus();
    }
    // A partial header is a truncation, never a parseable header.
    if (got.value() < header_bytes)
        return Status::corrupt(
            "peer closed after " + std::to_string(got.value()) +
            " of " + std::to_string(header_bytes) + " header bytes");
    auto header =
        parse_header(ByteSpan(header_buf, header_bytes), limits);
    CDPU_RETURN_IF_ERROR(header.status());

    // The caps were enforced by the header parse, so this allocation
    // is bounded by limits, not by attacker-declared lengths.
    Bytes body(header.value().bodyBytes());
    if (!body.empty()) {
        auto body_got = readFull(fd, body.data(), body.size());
        CDPU_RETURN_IF_ERROR(body_got.status());
        if (body_got.value() < body.size())
            return Status::corrupt(
                "peer closed after " +
                std::to_string(body_got.value()) + " of " +
                std::to_string(body.size()) + " body bytes");
    }
    auto assembled = assemble(header.value(), body);
    CDPU_RETURN_IF_ERROR(assembled.status());
    message = std::move(assembled.value());
    return Status::okStatus();
}

} // namespace

Status
readRequestFrame(int fd, const WireLimits &limits, WireRequest &request,
                 FrameReadOutcome &outcome)
{
    return readFrame<RequestHeader, WireRequest>(
        fd, kRequestHeaderBytes, parseRequestHeader, assembleRequest,
        limits, request, outcome);
}

Status
readResponseFrame(int fd, const WireLimits &limits,
                  WireResponse &response, FrameReadOutcome &outcome)
{
    return readFrame<ResponseHeader, WireResponse>(
        fd, kResponseHeaderBytes, parseResponseHeader, assembleResponse,
        limits, response, outcome);
}

Status
writeRequestFrame(int fd, const WireRequest &request)
{
    Bytes frame = encodeRequest(request);
    return writeFull(fd, frame.data(), frame.size());
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
