// Copyright 2026 The dpcube Authors.

#include "service/serve_protocol.h"

#include <istream>
#include <ostream>
#include <utility>

namespace dpcube {
namespace service {

static_assert(static_cast<int>(RequestKind::kQuit) < trace::kMaxVerbs &&
                  static_cast<int>(ErrorCode::kInternal) <
                      trace::kMaxErrorCodes,
              "the frame trace's tallies must cover every verb and code");

ServeSession::ServeSession(std::shared_ptr<ReleaseStore> store,
                           std::shared_ptr<MarginalCache> cache,
                           std::shared_ptr<const QueryService> service,
                           const BatchExecutor* executor)
    : store_(std::move(store)),
      cache_(std::move(cache)),
      service_(std::move(service)),
      executor_(executor) {}

void ServeSession::Run(std::istream& in, std::ostream& out) {
  ProcessStream(in, out, /*flush_each=*/true);
}

bool ServeSession::ProcessStream(std::istream& in, std::ostream& out,
                                 bool flush_each,
                                 trace::RequestTrace* frame_trace) {
  active_trace_ = frame_trace;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const Request request = ParseRequestLine(line, tokens);
    if (active_trace_) {
      // The frame's identity is its first request; a pipelined frame
      // keeps the first line's verb/release and tallies every line.
      ++active_trace_->verb_lines[static_cast<std::size_t>(request.kind)];
      if (active_trace_->verb.empty()) {
        active_trace_->verb = VerbName(request.kind);
      }
      if (active_trace_->release.empty() &&
          request.kind == RequestKind::kQuery) {
        active_trace_->release = request.query.release;
      }
    }
    bool quit = false;
    if (request.kind == RequestKind::kBatch) {
      HandleBatch(request, in, out);
    } else if (request.kind == RequestKind::kHello) {
      HandleHello(request, out);
    } else {
      Emit(ExecuteRequest(request), out);
      quit = request.kind == RequestKind::kQuit;
    }
    if (quit) {
      out.flush();
      active_trace_ = nullptr;
      return false;
    }
    if (flush_each) out.flush();
  }
  active_trace_ = nullptr;
  return true;
}

void ServeSession::Emit(const Response& response, std::ostream& out) {
  if (active_trace_ == nullptr) {
    EncodeResponse(response, codec(), out);
    return;
  }
  // The frame's outcome is its first non-kOk response (or "Ok", filled
  // in by the connection when the trace finalises with none recorded).
  if (response.code != ErrorCode::kOk) {
    ++active_trace_->errors[static_cast<std::size_t>(response.code)];
    if (active_trace_->outcome.empty()) {
      active_trace_->outcome = ErrorCodeName(response.code);
    }
  }
  const std::int64_t started = trace::NowNanos();
  EncodeResponse(response, codec(), out);
  active_trace_->encode_nanos +=
      static_cast<std::uint64_t>(trace::NowNanos() - started);
}

void ServeSession::TallyRelease(const std::string& release) {
  if (active_trace_ == nullptr) return;
  for (auto& [name, queries] : active_trace_->release_queries) {
    if (name == release) {
      ++queries;
      return;
    }
  }
  active_trace_->release_queries.emplace_back(release, 1);
}

void ServeSession::HandleHello(const Request& request, std::ostream& out) {
  // The ack leaves in the codec in effect BEFORE the switch, so a
  // client reading the stream under the old codec can always parse it;
  // every later response (including this frame's subsequent lines) uses
  // the negotiated one.
  Response ack;
  ack.request = RequestKind::kHello;
  ack.version = request.version;
  ack.codec = request.codec;
  Emit(ack, out);
  codec_.store(request.codec, std::memory_order_release);
}

bool ServeSession::CheckQuota(const Query& query, Response* denied) const {
  if (!quota_gate_) return true;
  std::string denial;
  if (quota_gate_(query.release, &denial)) return true;
  *denied = Response::Error(ErrorCode::kQuotaExceeded,
                            "QuotaExceeded: " + denial);
  denied->request = RequestKind::kQuery;
  return false;
}

Status ServeSession::ApplyMutation(const Mutation& mutation) {
  if (mutation_handler_) return mutation_handler_(mutation);
  // Volatile path: apply straight to the in-memory structures.
  switch (mutation.kind) {
    case MutationKind::kLoadRelease:
      return store_->LoadFromFile(mutation.name, mutation.path);
    case MutationKind::kUnloadRelease:
      return service_->RemoveRelease(mutation.name);
    default:
      return Status::Unimplemented(
          std::string("mutation '") + MutationKindName(mutation.kind) +
          "' needs a durable handler");
  }
}

Response ServeSession::ExecuteRequest(const Request& request) {
  Response response;
  response.request = request.kind;
  switch (request.kind) {
    case RequestKind::kQuit:
      return response;
    case RequestKind::kLoad: {
      const Status st =
          ApplyMutation(Mutation::LoadRelease(request.name, request.path));
      if (!st.ok()) {
        return Response::Error(ToErrorCode(st), st.ToString());
      }
      if (release_loaded_hook_) release_loaded_hook_(request.name);
      response.name = request.name;
      return response;
    }
    case RequestKind::kUnload: {
      const Status st = ApplyMutation(Mutation::UnloadRelease(request.name));
      if (!st.ok()) {
        return Response::Error(ToErrorCode(st), st.ToString());
      }
      response.name = request.name;
      return response;
    }
    case RequestKind::kList:
      response.releases = store_->List();
      return response;
    case RequestKind::kQuery: {
      Response denied;
      if (!CheckQuota(request.query, &denied)) return denied;
      Response answered = Response::FromQuery(service_->Answer(request.query));
      if (answered.code != ErrorCode::kNotFound) {
        TallyRelease(request.query.release);
      }
      return answered;
    }
    case RequestKind::kServerStats:
      if (server_stats_handler_) {
        response.message = server_stats_handler_();
        return response;
      }
      // Without a handler the verb is unknown, exactly as in v1.
      return Response::Error(ErrorCode::kBadRequest,
                             "unknown request '" + request.raw + "'");
    case RequestKind::kCacheStats:
      response.cache = cache_->stats();
      response.store_releases = store_->size();
      return response;
    case RequestKind::kInvalid:
    default:
      return Response::Error(request.error_code, request.error);
  }
}

void ServeSession::HandleBatch(const Request& request, std::istream& in,
                               std::ostream& out) {
  const std::size_t n = request.batch_count;
  std::vector<Query> batch;
  std::string batch_error;
  // Consume ALL n lines even after a bad one: stopping early would leave
  // the rest to be re-read as top-level commands and desync every later
  // request/response pair of a scripted client.
  for (std::size_t i = 0; i < n; ++i) {
    std::string sub_line;
    if (!std::getline(in, sub_line)) {
      batch_error = "unexpected EOF inside batch";
      break;
    }
    if (!batch_error.empty()) continue;
    const std::vector<std::string> sub_tokens = Tokenize(sub_line);
    if (sub_tokens.size() < 2 || sub_tokens[0] != "query") {
      batch_error = "batch lines must be query requests";
      continue;
    }
    Query q;
    if (!ParseServeQuery(
            std::vector<std::string>(sub_tokens.begin() + 1,
                                     sub_tokens.end()),
            &q, &batch_error)) {
      continue;
    }
    batch.push_back(std::move(q));
  }
  if (!batch_error.empty()) {
    Emit(Response::Error(ErrorCode::kBadRequest, std::move(batch_error)),
         out);
    return;
  }
  // Quota-denied sub-queries answer kQuotaExceeded in their ordinal
  // position; only the admitted remainder reaches the executor.
  std::vector<Response> responses(batch.size());
  std::vector<std::size_t> admitted;
  std::vector<Query> admitted_queries;
  admitted.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (CheckQuota(batch[i], &responses[i])) {
      admitted.push_back(i);
      admitted_queries.push_back(batch[i]);
    }
  }
  BatchTiming timing;
  const std::vector<QueryResponse> answers =
      admitted_queries.empty()
          ? std::vector<QueryResponse>{}
          : executor_->ExecuteBatch(admitted_queries,
                                    active_trace_ ? &timing : nullptr);
  for (std::size_t j = 0; j < admitted.size(); ++j) {
    responses[admitted[j]] = Response::FromQuery(answers[j]);
    if (responses[admitted[j]].code != ErrorCode::kNotFound) {
      TallyRelease(admitted_queries[j].release);
    }
  }
  if (active_trace_) {
    active_trace_->batch_queries += static_cast<std::uint32_t>(batch.size());
    if (timing.max_group_micros > active_trace_->batch_max_group_micros) {
      active_trace_->batch_max_group_micros = timing.max_group_micros;
    }
    if (active_trace_->release.empty() && !batch.empty()) {
      active_trace_->release = batch.front().release;
    }
  }
  for (const Response& response : responses) {
    Emit(response, out);
  }
}

}  // namespace service
}  // namespace dpcube
