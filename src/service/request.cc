// Copyright 2026 The dpcube Authors.

#include "service/request.h"

#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

namespace dpcube {
namespace service {

const char* CodecName(Codec codec) {
  switch (codec) {
    case Codec::kText: return "text";
    case Codec::kBinary: return "binary";
  }
  return "unknown";
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "Ok";
    case ErrorCode::kBadRequest: return "BadRequest";
    case ErrorCode::kNotFound: return "NotFound";
    case ErrorCode::kBusy: return "Busy";
    case ErrorCode::kQuotaExceeded: return "QuotaExceeded";
    case ErrorCode::kInternal: return "Internal";
  }
  return "Unknown";
}

const char* VerbName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kInvalid: return "invalid";
    case RequestKind::kHello: return "hello";
    case RequestKind::kLoad: return "load";
    case RequestKind::kUnload: return "unload";
    case RequestKind::kList: return "list";
    case RequestKind::kQuery: return "query";
    case RequestKind::kBatch: return "batch";
    case RequestKind::kCacheStats: return "stats";
    case RequestKind::kServerStats: return "server_stats";
    case RequestKind::kQuit: return "quit";
  }
  return "invalid";
}

ErrorCode ToErrorCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return ErrorCode::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return ErrorCode::kBadRequest;
    case StatusCode::kNotFound:
      return ErrorCode::kNotFound;
    case StatusCode::kUnavailable:
      return ErrorCode::kBusy;
    case StatusCode::kResourceExhausted:
      return ErrorCode::kQuotaExceeded;
    default:
      return ErrorCode::kInternal;
  }
}

Status ToStatus(ErrorCode code, std::string message) {
  switch (code) {
    case ErrorCode::kOk:
      return Status::OK();
    case ErrorCode::kBadRequest:
      return Status::InvalidArgument(std::move(message));
    case ErrorCode::kNotFound:
      return Status::NotFound(std::move(message));
    case ErrorCode::kBusy:
      return Status::Unavailable(std::move(message));
    case ErrorCode::kQuotaExceeded:
      return Status::ResourceExhausted(std::move(message));
    case ErrorCode::kInternal:
      return Status::Internal(std::move(message));
  }
  return Status::Internal(std::move(message));
}

bool ParseSize(const std::string& text, std::size_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  const bool hex = text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0;
  try {
    std::size_t pos = 0;
    *out = std::stoull(hex ? text.substr(2) : text, &pos, hex ? 16 : 10);
    if (pos != (hex ? text.size() - 2 : text.size()) ||
        (hex && text.size() == 2)) {
      return false;
    }
    // Uniform hostile-magnitude cap for BOTH bases: stoull alone accepts
    // anything below 2^64, and a count that close to SIZE_MAX overflows
    // the first `n + 1` or `2 * n` a consumer computes.
    return *out <= SIZE_MAX / 2;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::stringstream ss(line);
  std::vector<std::string> tokens;
  std::string token;
  while (ss >> token) tokens.push_back(token);
  return tokens;
}

bool ParseServeQuery(const std::vector<std::string>& tokens, Query* q,
                     std::string* error) {
  if (tokens.size() < 3) {
    *error = "query NAME marginal|cell|range MASK [CELL | LO HI]";
    return false;
  }
  q->release = tokens[0];
  const std::string& kind = tokens[1];
  std::size_t beta = 0;
  if (!ParseSize(tokens[2], &beta)) {
    *error = "bad mask '" + tokens[2] + "'";
    return false;
  }
  q->beta = beta;
  if (kind == "marginal" && tokens.size() == 3) {
    q->kind = QueryKind::kMarginal;
  } else if (kind == "cell" && tokens.size() == 4) {
    q->kind = QueryKind::kCell;
    if (!ParseSize(tokens[3], &q->cell_lo)) {
      *error = "bad cell '" + tokens[3] + "'";
      return false;
    }
  } else if (kind == "range" && tokens.size() == 5) {
    q->kind = QueryKind::kRange;
    if (!ParseSize(tokens[3], &q->cell_lo) ||
        !ParseSize(tokens[4], &q->cell_hi)) {
      *error = "bad range bounds";
      return false;
    }
  } else {
    *error = "unknown query form '" + kind + "'";
    return false;
  }
  return true;
}

namespace {

Request Invalid(std::string raw, ErrorCode code, std::string error) {
  Request request;
  request.kind = RequestKind::kInvalid;
  request.raw = std::move(raw);
  request.error_code = code;
  request.error = std::move(error);
  return request;
}

Request ParseHello(const std::string& line,
                   const std::vector<std::string>& tokens) {
  if (tokens.size() < 2 || tokens.size() > 3) {
    return Invalid(line, ErrorCode::kBadRequest,
                   "HELLO expects 'HELLO v1|v2 [text|binary]'");
  }
  Request request;
  request.kind = RequestKind::kHello;
  request.raw = line;
  if (tokens[1] == "v1") {
    request.version = kProtocolVersionV1;
  } else if (tokens[1] == "v2") {
    request.version = kProtocolVersionV2;
  } else {
    return Invalid(line, ErrorCode::kBadRequest,
                   "unsupported protocol version '" + tokens[1] + "'");
  }
  if (tokens.size() == 3) {
    if (tokens[2] == "text") {
      request.codec = Codec::kText;
    } else if (tokens[2] == "binary") {
      request.codec = Codec::kBinary;
    } else {
      return Invalid(line, ErrorCode::kBadRequest,
                     "unknown codec '" + tokens[2] + "'");
    }
  }
  if (request.version == kProtocolVersionV1 &&
      request.codec == Codec::kBinary) {
    return Invalid(line, ErrorCode::kBadRequest,
                   "protocol v1 has no binary codec");
  }
  return request;
}

}  // namespace

Request ParseRequestLine(const std::string& line,
                         const std::vector<std::string>& tokens) {
  Request request;
  request.raw = line;
  const std::string& command = tokens[0];

  // Dispatch mirrors the v1 HandleLine/ProcessStream pair exactly: a
  // verb with the wrong arity falls through to the unknown-request
  // error, "quit"/"exit" match regardless of arity, and only
  // "batch <one token>" is a batch header.
  if (command == "quit" || command == "exit") {
    request.kind = RequestKind::kQuit;
    return request;
  }
  if (command == "HELLO") {
    return ParseHello(line, tokens);
  }
  if (command == "load" && tokens.size() == 3) {
    request.kind = RequestKind::kLoad;
    request.name = tokens[1];
    request.path = tokens[2];
    return request;
  }
  if (command == "unload" && tokens.size() == 2) {
    request.kind = RequestKind::kUnload;
    request.name = tokens[1];
    return request;
  }
  if (command == "list" && tokens.size() == 1) {
    request.kind = RequestKind::kList;
    return request;
  }
  if (command == "query") {
    std::string error;
    if (!ParseServeQuery(
            std::vector<std::string>(tokens.begin() + 1, tokens.end()),
            &request.query, &error)) {
      return Invalid(line, ErrorCode::kBadRequest, std::move(error));
    }
    request.kind = RequestKind::kQuery;
    return request;
  }
  if (command == "batch" && tokens.size() == 2) {
    // Zero would emit zero response lines and stall a scripted client
    // waiting for one; an unbounded count (or "-1" wrapping) would
    // swallow the rest of the stream.
    std::size_t n = 0;
    if (!ParseSize(tokens[1], &n) || n == 0 || n > kMaxBatch) {
      return Invalid(line, ErrorCode::kBadRequest,
                     "batch expects a count in 1.." +
                         std::to_string(kMaxBatch));
    }
    request.kind = RequestKind::kBatch;
    request.batch_count = n;
    return request;
  }
  if (command == "STATS" && tokens.size() == 1) {
    request.kind = RequestKind::kServerStats;
    return request;
  }
  if (command == "stats" && tokens.size() == 1) {
    request.kind = RequestKind::kCacheStats;
    return request;
  }
  return Invalid(line, ErrorCode::kBadRequest,
                 "unknown request '" + line + "'");
}

std::string FormatResponse(const QueryResponse& response) {
  if (!response.status.ok()) {
    return "ERR " + response.status.ToString();
  }
  char head[96];
  std::snprintf(head, sizeof(head),
                "OK query mask=0x%llx var=%.6g hit=%d n=%zu values",
                static_cast<unsigned long long>(response.beta),
                response.variance, response.cache_hit ? 1 : 0,
                response.values.size());
  std::string line(head);
  char field[32];
  for (const double v : response.values) {
    std::snprintf(field, sizeof(field), " %.17g", v);
    line += field;
  }
  return line;
}

std::string FormatResponseLine(const Response& response) {
  if (response.has_query) return FormatResponse(response.query);
  if (response.code == ErrorCode::kBusy) return "BUSY " + response.message;
  if (response.code != ErrorCode::kOk) return "ERR " + response.message;
  switch (response.request) {
    case RequestKind::kHello: {
      std::string line = "OK HELLO v";
      line += std::to_string(response.version);
      line += " codec=";
      line += CodecName(response.codec);
      return line;
    }
    case RequestKind::kLoad:
      return "OK loaded " + response.name;
    case RequestKind::kUnload:
      return "OK unloaded " + response.name;
    case RequestKind::kList: {
      std::ostringstream out;
      out << "OK releases n=" << response.releases.size();
      for (const auto& info : response.releases) {
        out << " " << info.name << ":d=" << info.d
            << ":marginals=" << info.num_marginals
            << ":cells=" << info.total_cells;
      }
      return out.str();
    }
    case RequestKind::kCacheStats: {
      const CacheStats& s = response.cache;
      std::ostringstream out;
      out << "OK stats hits=" << s.hits << " misses=" << s.misses
          << " evictions=" << s.evictions << " entries=" << s.entries
          << " cells=" << s.cells << " capacity=" << s.capacity_cells
          << " releases=" << response.store_releases;
      return out.str();
    }
    case RequestKind::kServerStats:
      return response.message;  // The handler returns a full line.
    case RequestKind::kQuit:
      return "OK bye";
    default:
      return "OK " + response.message;
  }
}

}  // namespace service
}  // namespace dpcube
