#include "serve/wire.h"

#include <algorithm>
#include <cstring>

namespace cdpu::serve
{

namespace
{

u16
getU16(ByteSpan data, std::size_t pos)
{
    return static_cast<u16>(data[pos] |
                            (static_cast<u16>(data[pos + 1]) << 8));
}

u32
getU32(ByteSpan data, std::size_t pos)
{
    u32 value = 0;
    for (int i = 3; i >= 0; --i)
        value = (value << 8) | data[pos + static_cast<std::size_t>(i)];
    return value;
}

u64
getU64(ByteSpan data, std::size_t pos)
{
    u64 value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | data[pos + static_cast<std::size_t>(i)];
    return value;
}

/** Stores the low @p bytes bytes of @p value little-endian at @p out;
 *  returns the position after them. */
u8 *
storeLe(u8 *out, u64 value, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        *out++ = static_cast<u8>(value >> (8 * i));
    return out;
}

bool
specCharOk(u8 c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '+' || c == '_' || c == '-';
}

} // namespace

const char *
wireCodeName(WireCode code)
{
    switch (code) {
      case WireCode::ok: return "ok";
      case WireCode::malformedRequest: return "malformed_request";
      case WireCode::unknownCodec: return "unknown_codec";
      case WireCode::dataError: return "data_error";
      case WireCode::usageError: return "usage_error";
      case WireCode::resourceError: return "resource_error";
      case WireCode::internalError: return "internal_error";
      case WireCode::quotaExceeded: return "quota_exceeded";
      case WireCode::overloaded: return "overloaded";
      case WireCode::deadlineExceeded: return "deadline_exceeded";
      case WireCode::shuttingDown: return "shutting_down";
    }
    return "unknown";
}

WireCode
wireCodeFor(const Status &status)
{
    switch (failureClass(status)) {
      case FailureClass::none: return WireCode::ok;
      case FailureClass::dataError: return WireCode::dataError;
      case FailureClass::usageError: return WireCode::usageError;
      case FailureClass::resourceError: return WireCode::resourceError;
      case FailureClass::fault: return WireCode::internalError;
    }
    return WireCode::internalError;
}

void
encodeRequestHeader(const WireRequest &request, u8 *out)
{
    out = std::copy(std::begin(kRequestMagic), std::end(kRequestMagic),
                    out);
    *out++ = kWireVersion;
    *out++ = request.direction == codec::Direction::compress ? 0 : 1;
    out = storeLe(out, request.codecSpec.size(), 2);
    out = storeLe(out, request.requestId, 8);
    out = storeLe(out, request.tenantId, 8);
    out = storeLe(out, static_cast<u32>(request.level), 4);
    out = storeLe(out, request.windowLog, 4);
    out = storeLe(out, request.deadlineNs, 8);
    storeLe(out, request.payload.size(), 4);
}

Bytes
encodeRequest(const WireRequest &request)
{
    Bytes out(kRequestHeaderBytes);
    out.reserve(kRequestHeaderBytes + request.codecSpec.size() +
                request.payload.size());
    encodeRequestHeader(request, out.data());
    out.insert(out.end(), request.codecSpec.begin(),
               request.codecSpec.end());
    out.insert(out.end(), request.payload.begin(),
               request.payload.end());
    return out;
}

void
encodeResponseHeader(const ResponseHeader &header, u8 *out)
{
    out = std::copy(std::begin(kResponseMagic), std::end(kResponseMagic),
                    out);
    *out++ = kWireVersion;
    *out++ = static_cast<u8>(header.code);
    out = storeLe(out, header.messageBytes, 2);
    out = storeLe(out, header.requestId, 8);
    out = storeLe(out, header.payloadBytes, 4);
    storeLe(out, header.serviceNs, 8);
}

Bytes
encodeResponse(const WireResponse &response)
{
    ResponseHeader header;
    header.code = response.code;
    header.messageBytes = response.message.size();
    header.requestId = response.requestId;
    header.payloadBytes = response.payload.size();
    header.serviceNs = response.serviceNs;
    Bytes out(kResponseHeaderBytes);
    encodeResponseHeader(header, out.data());
    out.insert(out.end(), response.message.begin(),
               response.message.end());
    out.insert(out.end(), response.payload.begin(),
               response.payload.end());
    return out;
}

Result<RequestHeader>
parseRequestHeader(ByteSpan header, const WireLimits &limits)
{
    if (header.size() != kRequestHeaderBytes)
        return Status::corrupt("wire request header is " +
                               std::to_string(header.size()) +
                               " bytes, need " +
                               std::to_string(kRequestHeaderBytes));
    if (std::memcmp(header.data(), kRequestMagic,
                    sizeof kRequestMagic) != 0)
        return Status::corrupt("bad wire request magic");
    if (header[4] != kWireVersion)
        return Status::corrupt("unsupported wire version " +
                               std::to_string(header[4]));
    if (header[5] > 1)
        return Status::corrupt("bad direction byte " +
                               std::to_string(header[5]));

    RequestHeader parsed;
    parsed.direction = header[5] == 0 ? codec::Direction::compress
                                      : codec::Direction::decompress;
    parsed.specBytes = getU16(header, 6);
    parsed.requestId = getU64(header, 8);
    parsed.tenantId = getU64(header, 16);
    parsed.level = static_cast<i32>(getU32(header, 24));
    parsed.windowLog = getU32(header, 28);
    parsed.deadlineNs = getU64(header, 32);
    parsed.payloadBytes = getU32(header, 40);

    if (parsed.specBytes == 0)
        return Status::corrupt("empty codec spec");
    if (parsed.specBytes > limits.maxSpecBytes)
        return Status::corrupt(
            "codec spec claims " + std::to_string(parsed.specBytes) +
            " bytes, cap is " + std::to_string(limits.maxSpecBytes));
    if (parsed.payloadBytes > limits.maxPayloadBytes)
        return Status::corrupt(
            "payload claims " + std::to_string(parsed.payloadBytes) +
            " bytes, cap is " +
            std::to_string(limits.maxPayloadBytes));
    return parsed;
}

WireRequest
requestFromHeader(const RequestHeader &header)
{
    WireRequest request;
    request.requestId = header.requestId;
    request.tenantId = header.tenantId;
    request.codecSpec.resize(header.specBytes);
    request.direction = header.direction;
    request.level = header.level;
    request.windowLog = header.windowLog;
    request.deadlineNs = header.deadlineNs;
    request.payload.resize(header.payloadBytes);
    return request;
}

Status
checkCodecSpec(std::string_view spec)
{
    for (std::size_t i = 0; i < spec.size(); ++i) {
        if (!specCharOk(static_cast<u8>(spec[i])))
            return Status::corrupt(
                "codec spec byte " + std::to_string(i) +
                " outside [a-z0-9+_-]");
    }
    return Status::okStatus();
}

Result<WireRequest>
parseRequest(ByteSpan frame, const WireLimits &limits)
{
    if (frame.size() < kRequestHeaderBytes)
        return Status::corrupt("truncated wire request header (" +
                               std::to_string(frame.size()) +
                               " bytes)");
    auto header =
        parseRequestHeader(frame.first(kRequestHeaderBytes), limits);
    CDPU_RETURN_IF_ERROR(header.status());
    // Exact-length frames only: a short body is a truncation, trailing
    // bytes would silently desynchronize a stream transport.
    if (frame.size() - kRequestHeaderBytes !=
        header.value().bodyBytes())
        return Status::corrupt(
            "wire request frame is " + std::to_string(frame.size()) +
            " bytes, header declares " +
            std::to_string(kRequestHeaderBytes +
                           header.value().bodyBytes()));
    WireRequest request = requestFromHeader(header.value());
    const u8 *body = frame.data() + kRequestHeaderBytes;
    std::copy_n(body, request.codecSpec.size(), request.codecSpec.data());
    CDPU_RETURN_IF_ERROR(checkCodecSpec(request.codecSpec));
    std::copy_n(body + request.codecSpec.size(), request.payload.size(),
                request.payload.data());
    return request;
}

Result<ResponseHeader>
parseResponseHeader(ByteSpan header, const WireLimits &limits)
{
    if (header.size() != kResponseHeaderBytes)
        return Status::corrupt("wire response header is " +
                               std::to_string(header.size()) +
                               " bytes, need " +
                               std::to_string(kResponseHeaderBytes));
    if (std::memcmp(header.data(), kResponseMagic,
                    sizeof kResponseMagic) != 0)
        return Status::corrupt("bad wire response magic");
    if (header[4] != kWireVersion)
        return Status::corrupt("unsupported wire version " +
                               std::to_string(header[4]));
    if (header[5] > static_cast<u8>(WireCode::shuttingDown))
        return Status::corrupt("bad wire response code " +
                               std::to_string(header[5]));

    ResponseHeader parsed;
    parsed.code = static_cast<WireCode>(header[5]);
    parsed.messageBytes = getU16(header, 6);
    parsed.requestId = getU64(header, 8);
    parsed.payloadBytes = getU32(header, 16);
    parsed.serviceNs = getU64(header, 20);

    if (parsed.messageBytes > limits.maxMessageBytes)
        return Status::corrupt(
            "response message claims " +
            std::to_string(parsed.messageBytes) + " bytes, cap is " +
            std::to_string(limits.maxMessageBytes));
    if (parsed.payloadBytes > limits.maxPayloadBytes)
        return Status::corrupt(
            "response payload claims " +
            std::to_string(parsed.payloadBytes) + " bytes, cap is " +
            std::to_string(limits.maxPayloadBytes));
    return parsed;
}

WireResponse
responseFromHeader(const ResponseHeader &header)
{
    WireResponse response;
    response.requestId = header.requestId;
    response.code = header.code;
    response.serviceNs = header.serviceNs;
    response.message.resize(header.messageBytes);
    response.payload.resize(header.payloadBytes);
    return response;
}

Result<WireResponse>
parseResponse(ByteSpan frame, const WireLimits &limits)
{
    if (frame.size() < kResponseHeaderBytes)
        return Status::corrupt("truncated wire response header (" +
                               std::to_string(frame.size()) +
                               " bytes)");
    auto header =
        parseResponseHeader(frame.first(kResponseHeaderBytes), limits);
    CDPU_RETURN_IF_ERROR(header.status());
    if (frame.size() - kResponseHeaderBytes !=
        header.value().bodyBytes())
        return Status::corrupt(
            "wire response frame is " + std::to_string(frame.size()) +
            " bytes, header declares " +
            std::to_string(kResponseHeaderBytes +
                           header.value().bodyBytes()));
    WireResponse response = responseFromHeader(header.value());
    const u8 *body = frame.data() + kResponseHeaderBytes;
    std::copy_n(body, response.message.size(), response.message.data());
    std::copy_n(body + response.message.size(), response.payload.size(),
                response.payload.data());
    return response;
}

} // namespace cdpu::serve
