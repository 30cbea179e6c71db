// Copyright 2026 The dpcube Authors.
//
// The typed request/response surface of the serve protocol (protocol
// v2). Requests arrive as text lines in both protocol versions; this
// header gives every line a typed representation (Request) and every
// answer a typed one (Response) with a structured error code, so the
// session, the network connection, and the client library can operate
// on variants instead of string glue. How a Response reaches the wire
// is the codec's concern (service/wire_codec.h): the text codec
// reproduces the v1 lines byte for byte, the v2 binary codec packs
// value arrays as little-endian doubles.
//
// Protocol versions:
//   v1 — the original line protocol. No handshake; responses are text.
//   v2 — negotiated with "HELLO v2 [text|binary]". Requests stay text
//        lines; responses use the negotiated codec. "HELLO v1" (or
//        "HELLO v2 text") switches back to text, so a conversation can
//        change codecs at any request boundary. The HELLO ack itself is
//        encoded in the codec in effect BEFORE the switch, so the
//        client can always read it.

#ifndef DPCUBE_SERVICE_REQUEST_H_
#define DPCUBE_SERVICE_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/marginal_cache.h"
#include "service/query_service.h"
#include "service/release_store.h"

namespace dpcube {
namespace service {

inline constexpr int kProtocolVersionV1 = 1;
inline constexpr int kProtocolVersionV2 = 2;

/// Largest "batch N" count a session accepts (shared by v1 and v2).
inline constexpr std::size_t kMaxBatch = 100000;

/// Response encodings a v2 session can negotiate.
enum class Codec : std::uint8_t {
  kText = 1,    ///< v1-identical newline-terminated lines.
  kBinary = 2,  ///< Length-prefixed binary records (wire_codec.h).
};
const char* CodecName(Codec codec);

/// Structured error codes carried by every Response. The text codec
/// renders them into the v1 "ERR ..."/"BUSY ..." prefixes; the binary
/// codec carries the code byte itself.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,     ///< Malformed verb, arity, numeral, or handshake.
  kNotFound = 2,       ///< Unknown release / underivable marginal.
  kBusy = 3,           ///< Shed by admission control.
  kQuotaExceeded = 4,  ///< Per-release query quota exhausted.
  kInternal = 5,       ///< Everything else (I/O, numerical, ...).
};
const char* ErrorCodeName(ErrorCode code);

/// Maps a library Status onto the wire's error taxonomy. This is the
/// ONE Status -> ErrorCode conversion in the codebase (serve_protocol
/// and wire_codec both route through it). The wire taxonomy is coarser
/// than StatusCode, so several codes fold into each arm; ToStatus picks
/// one canonical preimage per ErrorCode, and ToErrorCode(ToStatus(e))
/// == e for every e (the round trip the tests pin down).
ErrorCode ToErrorCode(const Status& status);

/// Lifts a wire error back into a Status carrying `message` — the
/// canonical inverse of ToErrorCode (used by clients and by replay
/// paths that must reconstruct a Status from a logged code).
Status ToStatus(ErrorCode code, std::string message);

enum class RequestKind {
  kInvalid = 0,  ///< Unparseable; `error` holds the v1 message.
  kHello,        ///< HELLO v1|v2 [text|binary]
  kLoad,         ///< load NAME PATH
  kUnload,       ///< unload NAME
  kList,         ///< list
  kQuery,        ///< query NAME marginal|cell|range MASK [...]
  kBatch,        ///< batch N (+ N query sub-lines from the stream)
  kCacheStats,   ///< stats
  kServerStats,  ///< STATS
  kQuit,         ///< quit | exit
};

/// Stable lowercase verb label for a request kind ("load", "query",
/// "batch", ... — "invalid" for unparseable lines), used both as the
/// Prometheus `verb` label and as the STATS verb's key names.
const char* VerbName(RequestKind kind);

/// One parsed request line. Which fields are meaningful depends on
/// `kind`; everything else keeps its default.
struct Request {
  RequestKind kind = RequestKind::kInvalid;
  std::string raw;  ///< The original line (echoed by unknown-request).

  // kHello
  int version = kProtocolVersionV1;
  Codec codec = Codec::kText;

  // kLoad / kUnload
  std::string name;
  std::string path;  ///< kLoad only.

  // kQuery
  Query query;

  // kBatch
  std::size_t batch_count = 0;

  // kInvalid
  ErrorCode error_code = ErrorCode::kOk;
  std::string error;  ///< v1 error text without the "ERR " prefix.
};

/// One typed answer. `code` is kOk for successes; for failures `message`
/// holds the v1 error text without its "ERR "/"BUSY " prefix (the codec
/// re-attaches it). Query answers keep the full QueryResponse so the
/// text codec can reproduce the v1 line bit for bit and the binary
/// codec can pack the raw values.
struct Response {
  RequestKind request = RequestKind::kInvalid;
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  // kQuery (has_query distinguishes a typed query answer — possibly an
  // error inside query.status — from a pre-query refusal such as a
  // quota denial, which uses the plain code/message error path).
  bool has_query = false;
  QueryResponse query;

  // kHello
  int version = kProtocolVersionV1;
  Codec codec = Codec::kText;

  // kList
  std::vector<ReleaseInfo> releases;

  // kCacheStats
  CacheStats cache;
  std::size_t store_releases = 0;

  // kLoad / kUnload
  std::string name;

  static Response Error(ErrorCode error_code, std::string text) {
    Response response;
    response.code = error_code;
    response.message = std::move(text);
    return response;
  }
  /// A shed request's reply; `reason` is the admission controller's text
  /// without the "BUSY " prefix.
  static Response Busy(std::string reason) {
    return Error(ErrorCode::kBusy, std::move(reason));
  }
  static Response FromQuery(QueryResponse query_response) {
    Response response;
    response.request = RequestKind::kQuery;
    response.code = ToErrorCode(query_response.status);
    response.has_query = true;
    response.query = std::move(query_response);
    return response;
  }
};

/// Strict non-negative integer parse, decimal or 0x-hex ONLY (no octal:
/// "010" means ten); rejects empty input, negatives, trailing garbage,
/// and — uniformly across both bases — values above SIZE_MAX/2, so a
/// hostile count can never be doubled or rounded up into an overflow by
/// downstream arithmetic.
bool ParseSize(const std::string& text, std::size_t* out);

/// Splits a request line on whitespace (every dispatch layer shares
/// this, so they all parse identically).
std::vector<std::string> Tokenize(const std::string& line);

/// Parses "NAME kind MASK [args]" tokens (after the "query" verb) into
/// q. On failure returns false and fills `error`.
bool ParseServeQuery(const std::vector<std::string>& tokens, Query* q,
                     std::string* error);

/// Parses one request line into its typed form. Never fails outright:
/// unparseable input yields kind kInvalid with error_code/error filled
/// with exactly the v1 diagnosis ("unknown request '<line>'", "bad mask
/// '...'", ...). `tokens` must be Tokenize(line) and non-empty.
Request ParseRequestLine(const std::string& line,
                         const std::vector<std::string>& tokens);

/// Formats a query response as the v1 protocol's single line (no
/// trailing newline). Exported on its own because the CLI prints local
/// query answers through the same formatter.
std::string FormatResponse(const QueryResponse& response);

/// Renders a typed Response as its v1 text line, byte-identical to what
/// the pre-v2 server emitted (no trailing newline).
std::string FormatResponseLine(const Response& response);

}  // namespace service
}  // namespace dpcube

#endif  // DPCUBE_SERVICE_REQUEST_H_
