#ifndef HMMM_SERVER_WIRE_PROTOCOL_H_
#define HMMM_SERVER_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "retrieval/qbe.h"
#include "retrieval/result.h"

namespace hmmm {

// The HMMM query wire protocol: versioned, length-prefixed binary frames
// over TCP. Every message — request, response or typed error — is one
// frame:
//
//   offset  size  field
//   0       4     magic 0x484D4D51 ("QMMH" in memory, little-endian)
//   4       2     protocol version (1 through 4)
//   6       2     message type (MessageType)
//   8       4     payload size in bytes
//   12      4     CRC-32C of the payload
//   16      ...   payload (BinaryWriter encoding, little-endian)
//
// Versioning rules: the 16-byte header layout is frozen across all
// versions, so any peer can always frame-align and answer a version it
// does not speak with a typed kUnsupportedVersion error. Payload schemas
// may only change with a version bump; within one version fields are
// append-only.
//
// Version history:
//   v1  initial protocol (PR 5).
//   v2  distributed tracing: TemporalQuery/Qbe requests append a trace
//       context (128-bit trace id, parent span id; the existing
//       want_trace bit doubles as the sampling flag), their responses
//       append a serialized sub-trace blob, MetricsResponse appends a
//       machine-readable registry snapshot, and the DumpSlowQueries
//       message pair is added. A v2 speaker answers each request in the
//       request frame's version, so v1 clients get byte-identical v1
//       service; a client that receives kUnsupportedVersion for its v2
//       frame downgrades the connection to v1 and retries.
//   v3  replication control plane: the ReloadShardMap message pair is
//       added (request carries a serialized SMMH shard-map blob, the
//       response echoes the applied map epoch), and TrainResponse
//       appends per-shard broadcast accounting (shards_attempted /
//       shards_failed) so a coordinator fan-out can report partial
//       training failures instead of masking them.
//   v4  a TemporalQueryResponse that carries stats appends the
//       cube-pruning counters heap_pops and grid_cells_skipped, which
//       v1-v3 answers leave at 0.

inline constexpr uint32_t kWireMagic = 0x484D4D51u;
inline constexpr uint16_t kWireProtocolVersion = 4;
/// Oldest version this build still speaks. Frames inside
/// [kWireMinProtocolVersion, kWireProtocolVersion] are served; anything
/// else gets a typed kUnsupportedVersion answer.
inline constexpr uint16_t kWireMinProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Default per-connection frame cap (requests and responses). A header
/// announcing more than the cap is treated as corruption.
inline constexpr uint32_t kDefaultMaxFrameBytes = 8u << 20;

/// Frame tags. Requests are < 128; each success response is request+128;
/// kError answers any request.
enum class MessageType : uint16_t {
  kHealthRequest = 1,
  kTemporalQueryRequest = 2,
  kQbeRequest = 3,
  kMarkPositiveRequest = 4,
  kTrainRequest = 5,
  kMetricsRequest = 6,
  kDumpSlowQueriesRequest = 7,  // v2+
  kReloadShardMapRequest = 8,   // v3+
  kHealthResponse = 129,
  kTemporalQueryResponse = 130,
  kQbeResponse = 131,
  kMarkPositiveResponse = 132,
  kTrainResponse = 133,
  kMetricsResponse = 134,
  kDumpSlowQueriesResponse = 135,  // v2+
  kReloadShardMapResponse = 136,   // v3+
  kErrorResponse = 255,
};

/// True for the request tags.
bool IsRequestType(MessageType type);
/// Stable lowercase label for metrics/logging ("temporal_query", ...).
const char* MessageTypeLabel(MessageType type);

/// Error codes carried by kErrorResponse frames. 1..10 mirror StatusCode
/// one-to-one so library errors round-trip; 100+ are wire-layer errors.
enum class WireError : uint16_t {
  kNone = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kAlreadyExists = 5,
  kDataLoss = 6,
  kInternal = 7,
  kUnimplemented = 8,
  kIOError = 9,
  kResourceExhausted = 10,
  kBadMagic = 100,
  kBadCrc = 101,
  kFrameTooLarge = 102,
  kUnknownMessageType = 103,
  kUnsupportedVersion = 104,
  kMalformedPayload = 105,
  kSuperseded = 106,     // a newer cancel_generation arrived first
  kShuttingDown = 107,   // server draining; retry elsewhere/later
};

/// Mapping between library StatusCodes and wire error codes (and back).
/// Unknown wire codes map to kInternal so a newer server cannot crash an
/// older client.
WireError WireErrorFromStatus(const Status& status);
Status StatusFromWireError(WireError code, const std::string& message);

/// Errors a client may safely retry: the server did not (and will not)
/// execute the request.
bool WireErrorRetriable(WireError code);

/// Stable lowercase name for metrics/logging ("bad_crc", ...).
const char* WireErrorName(WireError code);

struct FrameHeader {
  uint16_t version = 0;
  MessageType type = MessageType::kErrorResponse;
  uint32_t payload_bytes = 0;
  uint32_t crc32c = 0;
};

/// One ready-to-send frame: header + payload. `version` is the protocol
/// version stamped into the header — encode the payload with the same
/// version.
std::string EncodeFrame(MessageType type, std::string_view payload,
                        uint16_t version = kWireProtocolVersion);

/// Validates the fixed 16-byte prefix (magic, version, length bound).
/// Returns kNone and fills `out` on success. `bytes` must hold at least
/// kFrameHeaderBytes. Versions in [kWireMinProtocolVersion, max_version]
/// pass; others return kUnsupportedVersion after filling `out`, so the
/// caller can still skip the well-framed payload and answer typed.
WireError DecodeFrameHeader(std::string_view bytes, uint32_t max_frame_bytes,
                            FrameHeader* out,
                            uint16_t max_version = kWireProtocolVersion);

/// CRC check of a received payload against its header.
WireError VerifyFramePayload(const FrameHeader& header,
                             std::string_view payload);

// -- Request payloads -----------------------------------------------------

struct TemporalQueryRequest {
  std::string text;
  /// Wall-clock budget the server maps onto TraversalOptions::deadline;
  /// -1 = no deadline. A fired budget returns a degraded (anytime)
  /// ranking, not an error.
  int64_t budget_ms = -1;
  /// Client-supplied cancellation generation, monotone per connection. A
  /// pipelined request whose generation is below the connection's newest
  /// seen generation is answered with kSuperseded instead of executing —
  /// the client replaced it.
  uint64_t cancel_generation = 0;
  bool want_stats = false;
  /// Ask the server to record and return a QueryTrace. Doubles as the
  /// trace-context sampling flag in v2: a sampled hop propagates it
  /// downstream together with the trace id.
  bool want_trace = false;
  /// v2 trace context (ignored by v1 peers; see trace_codec.h). Zero
  /// trace id = unset; a traced server mints one.
  uint64_t trace_id_hi = 0;   // v2+
  uint64_t trace_id_lo = 0;   // v2+
  uint64_t parent_span_id = 0;  // v2+
};

struct QbeRequest {
  std::vector<double> features;
  int32_t max_results = 20;
  bool want_trace = false;      // v2+
  uint64_t trace_id_hi = 0;     // v2+
  uint64_t trace_id_lo = 0;     // v2+
  uint64_t parent_span_id = 0;  // v2+
};

struct MarkPositiveRequest {
  RetrievedPattern pattern;
};

/// ReloadShardMap (v3+): hot-swaps a coordinator's shard map. The blob
/// is a complete serialized SMMH map (SerializeShardMap output); the
/// receiver validates it and rejects the swap unless the new epoch is
/// strictly greater than the epoch it is serving.
struct ReloadShardMapRequest {
  std::string map_blob;
};

// Train / Metrics / Health requests have empty payloads.

// -- Response payloads ----------------------------------------------------

struct TemporalQueryResponse {
  std::vector<RetrievedPattern> results;
  bool degraded = false;
  uint64_t videos_skipped = 0;
  bool has_stats = false;
  RetrievalStats stats;
  /// QueryTrace::RenderJsonl of the serving traversal; empty when the
  /// request did not ask for a trace.
  std::string trace_jsonl;
  /// v2: SerializeSpans() of the same trace — the machine-readable
  /// sub-trace a coordinator grafts into its cross-process tree.
  std::string trace_blob;  // v2+
};

struct QbeResponse {
  std::vector<QbeResult> results;
  std::string trace_blob;  // v2+
};

struct MarkPositiveResponse {
  uint64_t training_rounds = 0;
};

struct TrainResponse {
  bool trained = false;
  uint64_t training_rounds = 0;
  /// v3: per-shard broadcast accounting from a coordinator fan-out.
  /// Standalone servers report 1/0 (or 1/1 on failure — but a failed
  /// standalone Train is an error frame, so in practice 1/0).
  uint32_t shards_attempted = 1;  // v3+
  uint32_t shards_failed = 0;     // v3+
};

struct MetricsResponse {
  std::string prometheus_text;
  /// v2: MetricsRegistry::SnapshotJson() of the same registry, so a
  /// coordinator can merge shard metrics instead of scraping text.
  std::string json_snapshot;  // v2+
};

/// DumpSlowQueries (v2+): request payload is empty; the response carries
/// the server's SlowQueryLog::DumpJsonl(), oldest entry first.
struct DumpSlowQueriesResponse {
  std::string jsonl;
};

/// ReloadShardMap (v3+) success answer: the epoch now being served.
struct ReloadShardMapResponse {
  uint64_t epoch = 0;
  uint32_t num_shards = 0;
};

struct HealthResponse {
  uint64_t videos = 0;
  uint64_t shots = 0;
  uint64_t annotated_shots = 0;
  uint64_t model_version = 0;
  bool draining = false;
};

struct ErrorResponse {
  WireError code = WireError::kInternal;
  bool retriable = false;
  std::string message;
};

// -- Payload codecs -------------------------------------------------------
//
// Encode* returns the payload bytes (frame them with EncodeFrame);
// Decode* returns kDataLoss/kInvalidArgument on truncated or
// out-of-range input — the server answers those with kMalformedPayload.
// Codecs whose schema changed in v2 take the frame's protocol version:
// encoding at v1 stops before the v2 fields, decoding at v1 leaves them
// defaulted.

std::string EncodeTemporalQueryRequest(
    const TemporalQueryRequest& request,
    uint16_t version = kWireProtocolVersion);
StatusOr<TemporalQueryRequest> DecodeTemporalQueryRequest(
    std::string_view payload, uint16_t version = kWireProtocolVersion);

std::string EncodeQbeRequest(const QbeRequest& request,
                             uint16_t version = kWireProtocolVersion);
StatusOr<QbeRequest> DecodeQbeRequest(
    std::string_view payload, uint16_t version = kWireProtocolVersion);

std::string EncodeMarkPositiveRequest(const MarkPositiveRequest& request);
StatusOr<MarkPositiveRequest> DecodeMarkPositiveRequest(
    std::string_view payload);

std::string EncodeReloadShardMapRequest(const ReloadShardMapRequest& request);
StatusOr<ReloadShardMapRequest> DecodeReloadShardMapRequest(
    std::string_view payload);

std::string EncodeTemporalQueryResponse(
    const TemporalQueryResponse& response,
    uint16_t version = kWireProtocolVersion);
StatusOr<TemporalQueryResponse> DecodeTemporalQueryResponse(
    std::string_view payload, uint16_t version = kWireProtocolVersion);

std::string EncodeQbeResponse(const QbeResponse& response,
                              uint16_t version = kWireProtocolVersion);
StatusOr<QbeResponse> DecodeQbeResponse(
    std::string_view payload, uint16_t version = kWireProtocolVersion);

std::string EncodeMarkPositiveResponse(const MarkPositiveResponse& response);
StatusOr<MarkPositiveResponse> DecodeMarkPositiveResponse(
    std::string_view payload);

std::string EncodeTrainResponse(const TrainResponse& response,
                                uint16_t version = kWireProtocolVersion);
StatusOr<TrainResponse> DecodeTrainResponse(
    std::string_view payload, uint16_t version = kWireProtocolVersion);

std::string EncodeMetricsResponse(const MetricsResponse& response,
                                  uint16_t version = kWireProtocolVersion);
StatusOr<MetricsResponse> DecodeMetricsResponse(
    std::string_view payload, uint16_t version = kWireProtocolVersion);

std::string EncodeDumpSlowQueriesResponse(
    const DumpSlowQueriesResponse& response);
StatusOr<DumpSlowQueriesResponse> DecodeDumpSlowQueriesResponse(
    std::string_view payload);

std::string EncodeReloadShardMapResponse(
    const ReloadShardMapResponse& response);
StatusOr<ReloadShardMapResponse> DecodeReloadShardMapResponse(
    std::string_view payload);

std::string EncodeHealthResponse(const HealthResponse& response);
StatusOr<HealthResponse> DecodeHealthResponse(std::string_view payload);

std::string EncodeErrorResponse(const ErrorResponse& response);
StatusOr<ErrorResponse> DecodeErrorResponse(std::string_view payload);

}  // namespace hmmm

#endif  // HMMM_SERVER_WIRE_PROTOCOL_H_
