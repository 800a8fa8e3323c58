#include "server/wire_protocol.h"

#include "common/crc32.h"
#include "common/serialization.h"
#include "common/strings.h"

namespace hmmm {
namespace {

/// Guard against absurd vector lengths in decoded payloads: the frame
/// cap already bounds the byte count, but a corrupted varint length
/// could still demand a huge allocation before the element reads fail.
constexpr uint64_t kMaxWireElements = 1u << 24;

Status CheckCount(uint64_t count, const char* what) {
  if (count > kMaxWireElements) {
    return Status::InvalidArgument(
        StrFormat("%s count %llu exceeds wire bound", what,
                  static_cast<unsigned long long>(count)));
  }
  return Status::OK();
}

void EncodeRetrievedPattern(BinaryWriter& writer,
                            const RetrievedPattern& pattern) {
  writer.WriteInt32Vector(pattern.shots);
  writer.WriteDoubleVector(pattern.edge_weights);
  writer.WriteDouble(pattern.score);
  writer.WriteInt32(pattern.video);
  writer.WriteUint8(pattern.crosses_videos ? 1 : 0);
}

StatusOr<RetrievedPattern> DecodeRetrievedPattern(BinaryReader& reader) {
  RetrievedPattern pattern;
  HMMM_ASSIGN_OR_RETURN(pattern.shots, reader.ReadInt32Vector());
  HMMM_ASSIGN_OR_RETURN(pattern.edge_weights, reader.ReadDoubleVector());
  HMMM_ASSIGN_OR_RETURN(pattern.score, reader.ReadDouble());
  HMMM_ASSIGN_OR_RETURN(pattern.video, reader.ReadInt32());
  HMMM_ASSIGN_OR_RETURN(const uint8_t crosses, reader.ReadUint8());
  pattern.crosses_videos = crosses != 0;
  return pattern;
}

void EncodeStats(BinaryWriter& writer, const RetrievalStats& stats) {
  writer.WriteUint64(stats.videos_considered);
  writer.WriteUint64(stats.states_visited);
  writer.WriteUint64(stats.sim_evaluations);
  writer.WriteUint64(stats.candidates_scored);
  writer.WriteUint64(stats.beam_pruned);
  writer.WriteUint64(stats.annotated_fallbacks);
  writer.WriteUint64(stats.sim_memo_hits);
  writer.WriteUint64(stats.candidate_list_reuse);
  writer.WriteUint8(stats.truncated ? 1 : 0);
  writer.WriteUint8(stats.degraded ? 1 : 0);
  writer.WriteUint64(stats.videos_skipped);
}

StatusOr<RetrievalStats> DecodeStats(BinaryReader& reader) {
  RetrievalStats stats;
  HMMM_ASSIGN_OR_RETURN(stats.videos_considered, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(stats.states_visited, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(stats.sim_evaluations, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(stats.candidates_scored, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(stats.beam_pruned, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(stats.annotated_fallbacks, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(stats.sim_memo_hits, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(stats.candidate_list_reuse, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(const uint8_t truncated, reader.ReadUint8());
  stats.truncated = truncated != 0;
  HMMM_ASSIGN_OR_RETURN(const uint8_t degraded, reader.ReadUint8());
  stats.degraded = degraded != 0;
  HMMM_ASSIGN_OR_RETURN(stats.videos_skipped, reader.ReadUint64());
  return stats;
}

}  // namespace

bool IsRequestType(MessageType type) {
  switch (type) {
    case MessageType::kHealthRequest:
    case MessageType::kTemporalQueryRequest:
    case MessageType::kQbeRequest:
    case MessageType::kMarkPositiveRequest:
    case MessageType::kTrainRequest:
    case MessageType::kMetricsRequest:
    case MessageType::kDumpSlowQueriesRequest:
    case MessageType::kReloadShardMapRequest:
      return true;
    default:
      return false;
  }
}

const char* MessageTypeLabel(MessageType type) {
  switch (type) {
    case MessageType::kHealthRequest:
    case MessageType::kHealthResponse:
      return "health";
    case MessageType::kTemporalQueryRequest:
    case MessageType::kTemporalQueryResponse:
      return "temporal_query";
    case MessageType::kQbeRequest:
    case MessageType::kQbeResponse:
      return "query_by_example";
    case MessageType::kMarkPositiveRequest:
    case MessageType::kMarkPositiveResponse:
      return "mark_positive";
    case MessageType::kTrainRequest:
    case MessageType::kTrainResponse:
      return "train";
    case MessageType::kMetricsRequest:
    case MessageType::kMetricsResponse:
      return "metrics";
    case MessageType::kDumpSlowQueriesRequest:
    case MessageType::kDumpSlowQueriesResponse:
      return "dump_slow_queries";
    case MessageType::kReloadShardMapRequest:
    case MessageType::kReloadShardMapResponse:
      return "reload_shard_map";
    case MessageType::kErrorResponse:
      return "error";
  }
  return "unknown";
}

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireError::kNone;
    case StatusCode::kInvalidArgument:
      return WireError::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kOutOfRange:
      return WireError::kOutOfRange;
    case StatusCode::kFailedPrecondition:
      return WireError::kFailedPrecondition;
    case StatusCode::kAlreadyExists:
      return WireError::kAlreadyExists;
    case StatusCode::kDataLoss:
      return WireError::kDataLoss;
    case StatusCode::kInternal:
      return WireError::kInternal;
    case StatusCode::kUnimplemented:
      return WireError::kUnimplemented;
    case StatusCode::kIOError:
      return WireError::kIOError;
    case StatusCode::kResourceExhausted:
      return WireError::kResourceExhausted;
  }
  return WireError::kInternal;
}

Status StatusFromWireError(WireError code, const std::string& message) {
  switch (code) {
    case WireError::kNone:
      return Status::OK();
    case WireError::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireError::kNotFound:
      return Status::NotFound(message);
    case WireError::kOutOfRange:
      return Status::OutOfRange(message);
    case WireError::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case WireError::kAlreadyExists:
      return Status::AlreadyExists(message);
    case WireError::kDataLoss:
      return Status::DataLoss(message);
    case WireError::kInternal:
      return Status::Internal(message);
    case WireError::kUnimplemented:
      return Status::Unimplemented(message);
    case WireError::kIOError:
      return Status::IOError(message);
    case WireError::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case WireError::kBadMagic:
    case WireError::kBadCrc:
    case WireError::kFrameTooLarge:
    case WireError::kMalformedPayload:
      return Status::InvalidArgument("rejected by server: " + message);
    case WireError::kUnknownMessageType:
    case WireError::kUnsupportedVersion:
      return Status::Unimplemented(message);
    case WireError::kSuperseded:
      return Status::FailedPrecondition(message);
    case WireError::kShuttingDown:
      return Status::ResourceExhausted(message);
  }
  return Status::Internal(StrFormat("unknown wire error %u: %s",
                                    static_cast<unsigned>(code),
                                    message.c_str()));
}

bool WireErrorRetriable(WireError code) {
  // Both mean "the server refused before executing": admission shed and
  // drain refusal. Everything else is either permanent or ambiguous
  // about server-side effects.
  return code == WireError::kResourceExhausted ||
         code == WireError::kShuttingDown;
}

const char* WireErrorName(WireError code) {
  switch (code) {
    case WireError::kNone:
      return "ok";
    case WireError::kInvalidArgument:
      return "invalid_argument";
    case WireError::kNotFound:
      return "not_found";
    case WireError::kOutOfRange:
      return "out_of_range";
    case WireError::kFailedPrecondition:
      return "failed_precondition";
    case WireError::kAlreadyExists:
      return "already_exists";
    case WireError::kDataLoss:
      return "data_loss";
    case WireError::kInternal:
      return "internal";
    case WireError::kUnimplemented:
      return "unimplemented";
    case WireError::kIOError:
      return "io_error";
    case WireError::kResourceExhausted:
      return "resource_exhausted";
    case WireError::kBadMagic:
      return "bad_magic";
    case WireError::kBadCrc:
      return "bad_crc";
    case WireError::kFrameTooLarge:
      return "frame_too_large";
    case WireError::kUnknownMessageType:
      return "unknown_message_type";
    case WireError::kUnsupportedVersion:
      return "unsupported_version";
    case WireError::kMalformedPayload:
      return "malformed_payload";
    case WireError::kSuperseded:
      return "superseded";
    case WireError::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

std::string EncodeFrame(MessageType type, std::string_view payload,
                        uint16_t version) {
  BinaryWriter writer;
  writer.WriteUint32(kWireMagic);
  writer.WriteUint8(static_cast<uint8_t>(version & 0xFF));
  writer.WriteUint8(static_cast<uint8_t>(version >> 8));
  const uint16_t tag = static_cast<uint16_t>(type);
  writer.WriteUint8(static_cast<uint8_t>(tag & 0xFF));
  writer.WriteUint8(static_cast<uint8_t>(tag >> 8));
  writer.WriteUint32(static_cast<uint32_t>(payload.size()));
  writer.WriteUint32(Crc32c(payload.data(), payload.size()));
  std::string frame = std::move(writer).TakeBuffer();
  frame.append(payload.data(), payload.size());
  return frame;
}

WireError DecodeFrameHeader(std::string_view bytes, uint32_t max_frame_bytes,
                            FrameHeader* out, uint16_t max_version) {
  if (bytes.size() < kFrameHeaderBytes) return WireError::kMalformedPayload;
  BinaryReader reader(bytes.substr(0, kFrameHeaderBytes));
  const uint32_t magic = *reader.ReadUint32();
  if (magic != kWireMagic) return WireError::kBadMagic;
  const uint16_t version = static_cast<uint16_t>(
      *reader.ReadUint8() | (static_cast<uint16_t>(*reader.ReadUint8()) << 8));
  const uint16_t tag = static_cast<uint16_t>(
      *reader.ReadUint8() | (static_cast<uint16_t>(*reader.ReadUint8()) << 8));
  const uint32_t payload_bytes = *reader.ReadUint32();
  const uint32_t crc = *reader.ReadUint32();
  // The version check comes after frame-aligning fields so a peer can
  // still answer kUnsupportedVersion on a well-framed future message.
  if (payload_bytes > max_frame_bytes) return WireError::kFrameTooLarge;
  out->version = version;
  out->type = static_cast<MessageType>(tag);
  out->payload_bytes = payload_bytes;
  out->crc32c = crc;
  if (version < kWireMinProtocolVersion || version > max_version) {
    return WireError::kUnsupportedVersion;
  }
  return WireError::kNone;
}

WireError VerifyFramePayload(const FrameHeader& header,
                             std::string_view payload) {
  if (payload.size() != header.payload_bytes) {
    return WireError::kMalformedPayload;
  }
  if (Crc32c(payload.data(), payload.size()) != header.crc32c) {
    return WireError::kBadCrc;
  }
  return WireError::kNone;
}

std::string EncodeTemporalQueryRequest(const TemporalQueryRequest& request,
                                       uint16_t version) {
  BinaryWriter writer;
  writer.WriteString(request.text);
  writer.WriteInt64(request.budget_ms);
  writer.WriteUint64(request.cancel_generation);
  writer.WriteUint8(request.want_stats ? 1 : 0);
  writer.WriteUint8(request.want_trace ? 1 : 0);
  if (version >= 2) {
    writer.WriteUint64(request.trace_id_hi);
    writer.WriteUint64(request.trace_id_lo);
    writer.WriteUint64(request.parent_span_id);
  }
  return std::move(writer).TakeBuffer();
}

StatusOr<TemporalQueryRequest> DecodeTemporalQueryRequest(
    std::string_view payload, uint16_t version) {
  BinaryReader reader(payload);
  TemporalQueryRequest request;
  HMMM_ASSIGN_OR_RETURN(request.text, reader.ReadString());
  HMMM_ASSIGN_OR_RETURN(request.budget_ms, reader.ReadInt64());
  HMMM_ASSIGN_OR_RETURN(request.cancel_generation, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(const uint8_t want_stats, reader.ReadUint8());
  request.want_stats = want_stats != 0;
  HMMM_ASSIGN_OR_RETURN(const uint8_t want_trace, reader.ReadUint8());
  request.want_trace = want_trace != 0;
  if (version >= 2) {
    HMMM_ASSIGN_OR_RETURN(request.trace_id_hi, reader.ReadUint64());
    HMMM_ASSIGN_OR_RETURN(request.trace_id_lo, reader.ReadUint64());
    HMMM_ASSIGN_OR_RETURN(request.parent_span_id, reader.ReadUint64());
  }
  return request;
}

std::string EncodeQbeRequest(const QbeRequest& request, uint16_t version) {
  BinaryWriter writer;
  writer.WriteDoubleVector(request.features);
  writer.WriteInt32(request.max_results);
  if (version >= 2) {
    writer.WriteUint8(request.want_trace ? 1 : 0);
    writer.WriteUint64(request.trace_id_hi);
    writer.WriteUint64(request.trace_id_lo);
    writer.WriteUint64(request.parent_span_id);
  }
  return std::move(writer).TakeBuffer();
}

StatusOr<QbeRequest> DecodeQbeRequest(std::string_view payload,
                                      uint16_t version) {
  BinaryReader reader(payload);
  QbeRequest request;
  HMMM_ASSIGN_OR_RETURN(request.features, reader.ReadDoubleVector());
  HMMM_ASSIGN_OR_RETURN(request.max_results, reader.ReadInt32());
  if (version >= 2) {
    HMMM_ASSIGN_OR_RETURN(const uint8_t want_trace, reader.ReadUint8());
    request.want_trace = want_trace != 0;
    HMMM_ASSIGN_OR_RETURN(request.trace_id_hi, reader.ReadUint64());
    HMMM_ASSIGN_OR_RETURN(request.trace_id_lo, reader.ReadUint64());
    HMMM_ASSIGN_OR_RETURN(request.parent_span_id, reader.ReadUint64());
  }
  return request;
}

std::string EncodeMarkPositiveRequest(const MarkPositiveRequest& request) {
  BinaryWriter writer;
  EncodeRetrievedPattern(writer, request.pattern);
  return std::move(writer).TakeBuffer();
}

StatusOr<MarkPositiveRequest> DecodeMarkPositiveRequest(
    std::string_view payload) {
  BinaryReader reader(payload);
  MarkPositiveRequest request;
  HMMM_ASSIGN_OR_RETURN(request.pattern, DecodeRetrievedPattern(reader));
  return request;
}

std::string EncodeTemporalQueryResponse(const TemporalQueryResponse& response,
                                        uint16_t version) {
  BinaryWriter writer;
  writer.WriteVarint(response.results.size());
  for (const RetrievedPattern& pattern : response.results) {
    EncodeRetrievedPattern(writer, pattern);
  }
  writer.WriteUint8(response.degraded ? 1 : 0);
  writer.WriteUint64(response.videos_skipped);
  writer.WriteUint8(response.has_stats ? 1 : 0);
  if (response.has_stats) EncodeStats(writer, response.stats);
  writer.WriteString(response.trace_jsonl);
  if (version >= 2) writer.WriteString(response.trace_blob);
  if (version >= 4 && response.has_stats) {
    writer.WriteUint64(response.stats.heap_pops);
    writer.WriteUint64(response.stats.grid_cells_skipped);
  }
  return std::move(writer).TakeBuffer();
}

StatusOr<TemporalQueryResponse> DecodeTemporalQueryResponse(
    std::string_view payload, uint16_t version) {
  BinaryReader reader(payload);
  TemporalQueryResponse response;
  HMMM_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  HMMM_RETURN_IF_ERROR(CheckCount(count, "result"));
  response.results.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    HMMM_ASSIGN_OR_RETURN(RetrievedPattern pattern,
                          DecodeRetrievedPattern(reader));
    response.results.push_back(std::move(pattern));
  }
  HMMM_ASSIGN_OR_RETURN(const uint8_t degraded, reader.ReadUint8());
  response.degraded = degraded != 0;
  HMMM_ASSIGN_OR_RETURN(response.videos_skipped, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(const uint8_t has_stats, reader.ReadUint8());
  response.has_stats = has_stats != 0;
  if (response.has_stats) {
    HMMM_ASSIGN_OR_RETURN(response.stats, DecodeStats(reader));
  }
  HMMM_ASSIGN_OR_RETURN(response.trace_jsonl, reader.ReadString());
  if (version >= 2) {
    HMMM_ASSIGN_OR_RETURN(response.trace_blob, reader.ReadString());
  }
  if (version >= 4 && response.has_stats) {
    HMMM_ASSIGN_OR_RETURN(response.stats.heap_pops, reader.ReadUint64());
    HMMM_ASSIGN_OR_RETURN(response.stats.grid_cells_skipped,
                          reader.ReadUint64());
  }
  return response;
}

std::string EncodeQbeResponse(const QbeResponse& response,
                              uint16_t version) {
  BinaryWriter writer;
  writer.WriteVarint(response.results.size());
  for (const QbeResult& result : response.results) {
    writer.WriteInt32(result.shot);
    writer.WriteDouble(result.similarity);
  }
  if (version >= 2) writer.WriteString(response.trace_blob);
  return std::move(writer).TakeBuffer();
}

StatusOr<QbeResponse> DecodeQbeResponse(std::string_view payload,
                                        uint16_t version) {
  BinaryReader reader(payload);
  QbeResponse response;
  HMMM_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  HMMM_RETURN_IF_ERROR(CheckCount(count, "result"));
  response.results.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    QbeResult result;
    HMMM_ASSIGN_OR_RETURN(result.shot, reader.ReadInt32());
    HMMM_ASSIGN_OR_RETURN(result.similarity, reader.ReadDouble());
    response.results.push_back(result);
  }
  if (version >= 2) {
    HMMM_ASSIGN_OR_RETURN(response.trace_blob, reader.ReadString());
  }
  return response;
}

std::string EncodeMarkPositiveResponse(const MarkPositiveResponse& response) {
  BinaryWriter writer;
  writer.WriteUint64(response.training_rounds);
  return std::move(writer).TakeBuffer();
}

StatusOr<MarkPositiveResponse> DecodeMarkPositiveResponse(
    std::string_view payload) {
  BinaryReader reader(payload);
  MarkPositiveResponse response;
  HMMM_ASSIGN_OR_RETURN(response.training_rounds, reader.ReadUint64());
  return response;
}

std::string EncodeTrainResponse(const TrainResponse& response,
                                uint16_t version) {
  BinaryWriter writer;
  writer.WriteUint8(response.trained ? 1 : 0);
  writer.WriteUint64(response.training_rounds);
  if (version >= 3) {
    writer.WriteUint32(response.shards_attempted);
    writer.WriteUint32(response.shards_failed);
  }
  return std::move(writer).TakeBuffer();
}

StatusOr<TrainResponse> DecodeTrainResponse(std::string_view payload,
                                            uint16_t version) {
  BinaryReader reader(payload);
  TrainResponse response;
  HMMM_ASSIGN_OR_RETURN(const uint8_t trained, reader.ReadUint8());
  response.trained = trained != 0;
  HMMM_ASSIGN_OR_RETURN(response.training_rounds, reader.ReadUint64());
  if (version >= 3) {
    HMMM_ASSIGN_OR_RETURN(response.shards_attempted, reader.ReadUint32());
    HMMM_ASSIGN_OR_RETURN(response.shards_failed, reader.ReadUint32());
  }
  return response;
}

std::string EncodeMetricsResponse(const MetricsResponse& response,
                                  uint16_t version) {
  BinaryWriter writer;
  writer.WriteString(response.prometheus_text);
  if (version >= 2) writer.WriteString(response.json_snapshot);
  return std::move(writer).TakeBuffer();
}

StatusOr<MetricsResponse> DecodeMetricsResponse(std::string_view payload,
                                                uint16_t version) {
  BinaryReader reader(payload);
  MetricsResponse response;
  HMMM_ASSIGN_OR_RETURN(response.prometheus_text, reader.ReadString());
  if (version >= 2) {
    HMMM_ASSIGN_OR_RETURN(response.json_snapshot, reader.ReadString());
  }
  return response;
}

std::string EncodeDumpSlowQueriesResponse(
    const DumpSlowQueriesResponse& response) {
  BinaryWriter writer;
  writer.WriteString(response.jsonl);
  return std::move(writer).TakeBuffer();
}

StatusOr<DumpSlowQueriesResponse> DecodeDumpSlowQueriesResponse(
    std::string_view payload) {
  BinaryReader reader(payload);
  DumpSlowQueriesResponse response;
  HMMM_ASSIGN_OR_RETURN(response.jsonl, reader.ReadString());
  return response;
}

std::string EncodeReloadShardMapRequest(const ReloadShardMapRequest& request) {
  BinaryWriter writer;
  writer.WriteString(request.map_blob);
  return std::move(writer).TakeBuffer();
}

StatusOr<ReloadShardMapRequest> DecodeReloadShardMapRequest(
    std::string_view payload) {
  BinaryReader reader(payload);
  ReloadShardMapRequest request;
  HMMM_ASSIGN_OR_RETURN(request.map_blob, reader.ReadString());
  return request;
}

std::string EncodeReloadShardMapResponse(
    const ReloadShardMapResponse& response) {
  BinaryWriter writer;
  writer.WriteUint64(response.epoch);
  writer.WriteUint32(response.num_shards);
  return std::move(writer).TakeBuffer();
}

StatusOr<ReloadShardMapResponse> DecodeReloadShardMapResponse(
    std::string_view payload) {
  BinaryReader reader(payload);
  ReloadShardMapResponse response;
  HMMM_ASSIGN_OR_RETURN(response.epoch, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(response.num_shards, reader.ReadUint32());
  return response;
}

std::string EncodeHealthResponse(const HealthResponse& response) {
  BinaryWriter writer;
  writer.WriteUint64(response.videos);
  writer.WriteUint64(response.shots);
  writer.WriteUint64(response.annotated_shots);
  writer.WriteUint64(response.model_version);
  writer.WriteUint8(response.draining ? 1 : 0);
  return std::move(writer).TakeBuffer();
}

StatusOr<HealthResponse> DecodeHealthResponse(std::string_view payload) {
  BinaryReader reader(payload);
  HealthResponse response;
  HMMM_ASSIGN_OR_RETURN(response.videos, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(response.shots, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(response.annotated_shots, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(response.model_version, reader.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(const uint8_t draining, reader.ReadUint8());
  response.draining = draining != 0;
  return response;
}

std::string EncodeErrorResponse(const ErrorResponse& response) {
  BinaryWriter writer;
  writer.WriteUint32(static_cast<uint32_t>(response.code));
  writer.WriteUint8(response.retriable ? 1 : 0);
  writer.WriteString(response.message);
  return std::move(writer).TakeBuffer();
}

StatusOr<ErrorResponse> DecodeErrorResponse(std::string_view payload) {
  BinaryReader reader(payload);
  ErrorResponse response;
  HMMM_ASSIGN_OR_RETURN(const uint32_t code, reader.ReadUint32());
  response.code = static_cast<WireError>(code);
  HMMM_ASSIGN_OR_RETURN(const uint8_t retriable, reader.ReadUint8());
  response.retriable = retriable != 0;
  HMMM_ASSIGN_OR_RETURN(response.message, reader.ReadString());
  return response;
}

}  // namespace hmmm
