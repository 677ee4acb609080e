/**
 * @file
 * Lightweight Status/Result error propagation used by every decoder path.
 *
 * Decoders must never crash on corrupt input; they return a Status carrying
 * a category and a human-readable message instead. Result<T> couples a value
 * with a Status for fallible producers.
 */

#ifndef CDPU_COMMON_ERROR_H_
#define CDPU_COMMON_ERROR_H_

#include <string>
#include <utility>

#include "common/types.h"

namespace cdpu
{

/** Coarse failure categories for fallible operations. */
enum class StatusCode
{
    ok,
    corruptData,     ///< Malformed or truncated compressed stream.
    bufferTooSmall,  ///< Destination capacity insufficient.
    invalidArgument, ///< Caller supplied an out-of-range parameter.
    unsupported,     ///< Valid input requesting an unimplemented feature.
    internal,        ///< Invariant violation inside the library.
    ioError,         ///< Filesystem read/write failure (traces, reports).
};

/** Success-or-error value for operations without a payload. */
class Status
{
  public:
    /** Constructs an OK status. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    static Status okStatus() { return Status(); }

    static Status
    corrupt(std::string message)
    {
        return Status(StatusCode::corruptData, std::move(message));
    }

    static Status
    invalid(std::string message)
    {
        return Status(StatusCode::invalidArgument, std::move(message));
    }

    static Status
    unsupported(std::string message)
    {
        return Status(StatusCode::unsupported, std::move(message));
    }

    static Status
    internal(std::string message)
    {
        return Status(StatusCode::internal, std::move(message));
    }

    static Status
    io(std::string message)
    {
        return Status(StatusCode::ioError, std::move(message));
    }

    bool ok() const { return code_ == StatusCode::ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Renders "OK" or "<category>: <message>" for logs and tests. */
    std::string
    toString() const
    {
        if (ok())
            return "OK";
        return categoryName() + ": " + message_;
    }

  private:
    std::string
    categoryName() const
    {
        switch (code_) {
          case StatusCode::ok: return "OK";
          case StatusCode::corruptData: return "CORRUPT_DATA";
          case StatusCode::bufferTooSmall: return "BUFFER_TOO_SMALL";
          case StatusCode::invalidArgument: return "INVALID_ARGUMENT";
          case StatusCode::unsupported: return "UNSUPPORTED";
          case StatusCode::internal: return "INTERNAL";
          case StatusCode::ioError: return "IO_ERROR";
        }
        return "UNKNOWN";
    }

    StatusCode code_ = StatusCode::ok;
    std::string message_;
};

/**
 * Coarse failure classes over StatusCode, the unit of comparison for
 * differential checks: a decoder fed the same bytes whole-buffer and
 * through a streaming session must land in the same class (messages
 * and exact codes may differ by path; the class may not). Decode paths
 * fed corrupt data must report dataError — usageError is for caller
 * mistakes, and fault means the library itself misbehaved.
 */
enum class FailureClass
{
    none,          ///< StatusCode::ok.
    dataError,     ///< corruptData: the bytes are bad.
    usageError,    ///< invalidArgument/unsupported: the caller is wrong.
    resourceError, ///< bufferTooSmall.
    fault,         ///< internal/ioError: the library is wrong.
};

constexpr FailureClass
failureClass(StatusCode code)
{
    switch (code) {
      case StatusCode::ok: return FailureClass::none;
      case StatusCode::corruptData: return FailureClass::dataError;
      case StatusCode::invalidArgument:
      case StatusCode::unsupported: return FailureClass::usageError;
      case StatusCode::bufferTooSmall:
        return FailureClass::resourceError;
      case StatusCode::internal:
      case StatusCode::ioError: return FailureClass::fault;
    }
    return FailureClass::fault;
}

inline FailureClass
failureClass(const Status &status)
{
    return failureClass(status.code());
}

constexpr const char *
failureClassName(FailureClass cls)
{
    switch (cls) {
      case FailureClass::none: return "none";
      case FailureClass::dataError: return "data_error";
      case FailureClass::usageError: return "usage_error";
      case FailureClass::resourceError: return "resource_error";
      case FailureClass::fault: return "fault";
    }
    return "unknown";
}

/**
 * Value-or-error wrapper. Access value() only after checking ok();
 * accessing the value of a failed Result is undefined.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Status status) : status_(std::move(status)) {}

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    T &value() & { return value_; }
    const T &value() const & { return value_; }
    T &&value() && { return std::move(value_); }

  private:
    Status status_;
    T value_{};
};

/**
 * The one output-limit check every decode entry point runs on its
 * frame's claimed decoded size, before it reserves anything: a claim
 * over @p max_output_bytes (kMaxDecodedBytes by default) is
 * corruptData.
 */
inline Status
checkOutputClaim(u64 claimed, u64 max_output_bytes)
{
    if (claimed <= max_output_bytes)
        return Status::okStatus();
    return Status::corrupt("claimed output of " + std::to_string(claimed) +
                           " bytes exceeds the " +
                           std::to_string(max_output_bytes) +
                           "-byte output limit");
}

/** Propagates a non-OK status from the current function. */
#define CDPU_RETURN_IF_ERROR(expr)                                           \
    do {                                                                     \
        ::cdpu::Status cdpu_status_ = (expr);                                \
        if (!cdpu_status_.ok())                                              \
            return cdpu_status_;                                             \
    } while (false)

} // namespace cdpu

#endif // CDPU_COMMON_ERROR_H_
