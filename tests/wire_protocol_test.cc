#include "server/wire_protocol.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/status.h"

namespace hmmm {
namespace {

RetrievedPattern MakePattern(double score) {
  RetrievedPattern pattern;
  pattern.shots = {3, 17, 42};
  pattern.edge_weights = {0.25, score};
  pattern.score = score;
  pattern.video = 7;
  pattern.crosses_videos = true;
  return pattern;
}

// -- Framing --------------------------------------------------------------

TEST(FrameTest, HeaderRoundTrips) {
  const std::string frame =
      EncodeFrame(MessageType::kTemporalQueryRequest, "payload");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 7);
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kNone);
  EXPECT_EQ(header.version, kWireProtocolVersion);
  EXPECT_EQ(header.type, MessageType::kTemporalQueryRequest);
  EXPECT_EQ(header.payload_bytes, 7u);
  EXPECT_EQ(VerifyFramePayload(header, frame.substr(kFrameHeaderBytes)),
            WireError::kNone);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  const std::string frame = EncodeFrame(MessageType::kHealthRequest, "");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kNone);
  EXPECT_EQ(header.payload_bytes, 0u);
  EXPECT_EQ(VerifyFramePayload(header, ""), WireError::kNone);
}

// The corrupt-frame corpus: every malformed input must produce a typed
// wire error, never a crash or an accepted frame.

TEST(CorruptFrameTest, BadMagic) {
  std::string frame = EncodeFrame(MessageType::kHealthRequest, "");
  frame[0] = 'X';
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kBadMagic);
}

TEST(CorruptFrameTest, AllZeroHeader) {
  const std::string frame(kFrameHeaderBytes, '\0');
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kBadMagic);
}

TEST(CorruptFrameTest, UnsupportedVersionStillYieldsType) {
  std::string frame = EncodeFrame(MessageType::kTemporalQueryRequest, "x");
  frame[4] = 99;  // version low byte
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kUnsupportedVersion);
  // The frozen header layout means we can still see what was asked even
  // when we do not speak the version (needed to answer the error).
  EXPECT_EQ(header.payload_bytes, 1u);
}

TEST(CorruptFrameTest, OversizedLength) {
  std::string frame = EncodeFrame(MessageType::kTemporalQueryRequest, "x");
  // Rewrite the payload-size field (offset 8, little-endian u32) to 2 GiB.
  frame[8] = 0;
  frame[9] = 0;
  frame[10] = 0;
  frame[11] = static_cast<char>(0x80);
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kFrameTooLarge);
}

TEST(CorruptFrameTest, BadCrc) {
  const std::string frame = EncodeFrame(MessageType::kQbeRequest, "payload");
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kNone);
  std::string payload = frame.substr(kFrameHeaderBytes);
  payload[0] ^= 0x40;
  EXPECT_EQ(VerifyFramePayload(header, payload), WireError::kBadCrc);
}

TEST(CorruptFrameTest, TruncatedPayload) {
  const std::string frame = EncodeFrame(MessageType::kQbeRequest, "payload");
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kNone);
  const std::string truncated = frame.substr(kFrameHeaderBytes, 3);
  EXPECT_EQ(VerifyFramePayload(header, truncated),
            WireError::kMalformedPayload);
}

TEST(CorruptFrameTest, TruncatedPayloadCodecs) {
  // Chop a valid payload at every prefix length: decoders must error,
  // not crash or read out of bounds.
  TemporalQueryResponse response;
  response.results = {MakePattern(0.5), MakePattern(0.25)};
  response.degraded = true;
  response.videos_skipped = 3;
  const std::string payload = EncodeTemporalQueryResponse(response);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeTemporalQueryResponse(payload.substr(0, n)).ok())
        << "prefix length " << n << " decoded successfully";
  }
}

TEST(CorruptFrameTest, HostileElementCountRejected) {
  // A hand-built payload claiming 2^31 results must be rejected by the
  // element-count guard instead of driving a giant allocation.
  std::string payload;
  const uint32_t hostile = 0x7FFFFFFFu;
  payload.push_back(static_cast<char>(hostile & 0xFF));
  payload.push_back(static_cast<char>((hostile >> 8) & 0xFF));
  payload.push_back(static_cast<char>((hostile >> 16) & 0xFF));
  payload.push_back(static_cast<char>((hostile >> 24) & 0xFF));
  EXPECT_FALSE(DecodeTemporalQueryResponse(payload).ok());
  EXPECT_FALSE(DecodeQbeResponse(payload).ok());
}

// -- Error-code mapping ---------------------------------------------------

TEST(WireErrorTest, StatusCodesRoundTrip) {
  const Status statuses[] = {
      Status::InvalidArgument("a"), Status::NotFound("b"),
      Status::OutOfRange("c"),      Status::FailedPrecondition("d"),
      Status::AlreadyExists("e"),   Status::DataLoss("f"),
      Status::Internal("g"),        Status::Unimplemented("h"),
      Status::IOError("i"),         Status::ResourceExhausted("j"),
  };
  for (const Status& status : statuses) {
    const WireError code = WireErrorFromStatus(status);
    const Status back = StatusFromWireError(code, status.message());
    EXPECT_EQ(back.code(), status.code()) << status.ToString();
    EXPECT_EQ(back.message(), status.message());
  }
}

TEST(WireErrorTest, WireLayerCodesMapToClientStatuses) {
  EXPECT_EQ(StatusFromWireError(WireError::kBadMagic, "m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromWireError(WireError::kBadCrc, "m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromWireError(WireError::kFrameTooLarge, "m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromWireError(WireError::kMalformedPayload, "m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromWireError(WireError::kUnknownMessageType, "m").code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(StatusFromWireError(WireError::kUnsupportedVersion, "m").code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(StatusFromWireError(WireError::kSuperseded, "m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromWireError(WireError::kShuttingDown, "m").code(),
            StatusCode::kResourceExhausted);
  // An unknown future code degrades to kInternal instead of crashing.
  EXPECT_EQ(StatusFromWireError(static_cast<WireError>(9999), "m").code(),
            StatusCode::kInternal);
}

TEST(WireErrorTest, OnlyRefusalsAreRetriable) {
  EXPECT_TRUE(WireErrorRetriable(WireError::kResourceExhausted));
  EXPECT_TRUE(WireErrorRetriable(WireError::kShuttingDown));
  EXPECT_FALSE(WireErrorRetriable(WireError::kInvalidArgument));
  EXPECT_FALSE(WireErrorRetriable(WireError::kBadCrc));
  EXPECT_FALSE(WireErrorRetriable(WireError::kSuperseded));
  EXPECT_FALSE(WireErrorRetriable(WireError::kInternal));
}

// -- Payload codecs -------------------------------------------------------

TEST(CodecTest, TemporalQueryRequestRoundTrips) {
  TemporalQueryRequest request;
  request.text = "free_kick & goal ; corner_kick";
  request.budget_ms = 1500;
  request.cancel_generation = 42;
  request.want_stats = true;
  request.want_trace = true;
  const auto decoded =
      DecodeTemporalQueryRequest(EncodeTemporalQueryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->text, request.text);
  EXPECT_EQ(decoded->budget_ms, 1500);
  EXPECT_EQ(decoded->cancel_generation, 42u);
  EXPECT_TRUE(decoded->want_stats);
  EXPECT_TRUE(decoded->want_trace);
}

TEST(CodecTest, TemporalQueryResponseBitExact) {
  TemporalQueryResponse response;
  RetrievedPattern pattern = MakePattern(0.123456789012345);
  // A score with no short decimal representation: doubles travel as raw
  // IEEE-754 bits, so the decode must be bit-exact, not just close.
  pattern.score = 0x1.fffffffffffffp-3;
  pattern.edge_weights = {0x1.0000000000001p0,
                          std::numeric_limits<double>::denorm_min()};
  response.results = {pattern, MakePattern(0.5)};
  response.degraded = true;
  response.videos_skipped = 9;
  response.has_stats = true;
  response.stats.states_visited = 1234;
  response.stats.sim_evaluations = 567;
  response.stats.truncated = true;
  response.stats.degraded = true;
  response.stats.videos_skipped = 9;
  response.trace_jsonl = "{\"span\":\"traversal\"}\n";

  const auto decoded =
      DecodeTemporalQueryResponse(EncodeTemporalQueryResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->results.size(), 2u);
  EXPECT_EQ(decoded->results[0].shots, pattern.shots);
  EXPECT_EQ(decoded->results[0].video, pattern.video);
  EXPECT_TRUE(decoded->results[0].crosses_videos);
  // Bit-exact doubles.
  EXPECT_EQ(decoded->results[0].score, pattern.score);
  ASSERT_EQ(decoded->results[0].edge_weights.size(), 2u);
  EXPECT_EQ(decoded->results[0].edge_weights[1],
            std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(decoded->degraded);
  EXPECT_EQ(decoded->videos_skipped, 9u);
  ASSERT_TRUE(decoded->has_stats);
  EXPECT_EQ(decoded->stats.states_visited, 1234u);
  EXPECT_EQ(decoded->stats.sim_evaluations, 567u);
  EXPECT_TRUE(decoded->stats.truncated);
  EXPECT_TRUE(decoded->stats.degraded);
  EXPECT_EQ(decoded->stats.videos_skipped, 9u);
  EXPECT_EQ(decoded->trace_jsonl, response.trace_jsonl);
}

TEST(CodecTest, QbeRoundTrips) {
  QbeRequest request;
  request.features = {0.1, 0.9, 0.5};
  request.max_results = 7;
  const auto decoded_request = DecodeQbeRequest(EncodeQbeRequest(request));
  ASSERT_TRUE(decoded_request.ok());
  EXPECT_EQ(decoded_request->features, request.features);
  EXPECT_EQ(decoded_request->max_results, 7);

  QbeResponse response;
  response.results = {{11, 0.75}, {3, 0.5}};
  const auto decoded = DecodeQbeResponse(EncodeQbeResponse(response));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->results.size(), 2u);
  EXPECT_EQ(decoded->results[0].shot, 11);
  EXPECT_EQ(decoded->results[0].similarity, 0.75);
}

TEST(CodecTest, MarkPositiveTrainMetricsHealthRoundTrip) {
  MarkPositiveRequest mark;
  mark.pattern = MakePattern(0.5);
  const auto decoded_mark =
      DecodeMarkPositiveRequest(EncodeMarkPositiveRequest(mark));
  ASSERT_TRUE(decoded_mark.ok());
  EXPECT_EQ(decoded_mark->pattern.shots, mark.pattern.shots);

  const auto decoded_mark_response =
      DecodeMarkPositiveResponse(EncodeMarkPositiveResponse({17}));
  ASSERT_TRUE(decoded_mark_response.ok());
  EXPECT_EQ(decoded_mark_response->training_rounds, 17u);

  const auto decoded_train = DecodeTrainResponse(EncodeTrainResponse(
      {/*trained=*/true, /*training_rounds=*/4}));
  ASSERT_TRUE(decoded_train.ok());
  EXPECT_TRUE(decoded_train->trained);
  EXPECT_EQ(decoded_train->training_rounds, 4u);

  MetricsResponse metrics_response;
  metrics_response.prometheus_text = "# HELP x\nx 1\n";
  const auto decoded_metrics =
      DecodeMetricsResponse(EncodeMetricsResponse(metrics_response));
  ASSERT_TRUE(decoded_metrics.ok());
  EXPECT_EQ(decoded_metrics->prometheus_text, "# HELP x\nx 1\n");

  HealthResponse health;
  health.videos = 54;
  health.shots = 11567;
  health.annotated_shots = 506;
  health.model_version = 3;
  health.draining = true;
  const auto decoded_health =
      DecodeHealthResponse(EncodeHealthResponse(health));
  ASSERT_TRUE(decoded_health.ok());
  EXPECT_EQ(decoded_health->videos, 54u);
  EXPECT_EQ(decoded_health->shots, 11567u);
  EXPECT_EQ(decoded_health->annotated_shots, 506u);
  EXPECT_EQ(decoded_health->model_version, 3u);
  EXPECT_TRUE(decoded_health->draining);
}

TEST(CodecTest, ErrorResponseRoundTrips) {
  ErrorResponse error;
  error.code = WireError::kResourceExhausted;
  error.retriable = true;
  error.message = "retrieval admission queue full (load shed)";
  const auto decoded = DecodeErrorResponse(EncodeErrorResponse(error));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, WireError::kResourceExhausted);
  EXPECT_TRUE(decoded->retriable);
  EXPECT_EQ(decoded->message, error.message);
}

// -- v2 trace fields and mixed-version codecs -----------------------------

TEST(CodecV2Test, TraceContextFieldsRoundTrip) {
  TemporalQueryRequest request;
  request.text = "goal";
  request.want_trace = true;
  request.trace_id_hi = 0x0123456789ABCDEFull;
  request.trace_id_lo = 0xFEDCBA9876543210ull;
  request.parent_span_id = 7;
  const auto decoded =
      DecodeTemporalQueryRequest(EncodeTemporalQueryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id_hi, request.trace_id_hi);
  EXPECT_EQ(decoded->trace_id_lo, request.trace_id_lo);
  EXPECT_EQ(decoded->parent_span_id, 7u);

  QbeRequest qbe;
  qbe.features = {0.5};
  qbe.want_trace = true;
  qbe.trace_id_hi = 1;
  qbe.trace_id_lo = 2;
  qbe.parent_span_id = 3;
  const auto decoded_qbe = DecodeQbeRequest(EncodeQbeRequest(qbe));
  ASSERT_TRUE(decoded_qbe.ok());
  EXPECT_TRUE(decoded_qbe->want_trace);
  EXPECT_EQ(decoded_qbe->trace_id_hi, 1u);
  EXPECT_EQ(decoded_qbe->trace_id_lo, 2u);
  EXPECT_EQ(decoded_qbe->parent_span_id, 3u);

  TemporalQueryResponse response;
  response.results = {MakePattern(0.5)};
  response.trace_blob = std::string("\x01\x02\x00", 3);
  const auto decoded_response =
      DecodeTemporalQueryResponse(EncodeTemporalQueryResponse(response));
  ASSERT_TRUE(decoded_response.ok());
  EXPECT_EQ(decoded_response->trace_blob, response.trace_blob);

  QbeResponse qbe_response;
  qbe_response.results = {{11, 0.75}};
  qbe_response.trace_blob = "blob";
  const auto decoded_qbe_response =
      DecodeQbeResponse(EncodeQbeResponse(qbe_response));
  ASSERT_TRUE(decoded_qbe_response.ok());
  EXPECT_EQ(decoded_qbe_response->trace_blob, "blob");

  MetricsResponse metrics;
  metrics.prometheus_text = "x 1\n";
  metrics.json_snapshot = "{\"v\":1,\"metrics\":[]}";
  const auto decoded_metrics =
      DecodeMetricsResponse(EncodeMetricsResponse(metrics));
  ASSERT_TRUE(decoded_metrics.ok());
  EXPECT_EQ(decoded_metrics->json_snapshot, metrics.json_snapshot);

  DumpSlowQueriesResponse slow;
  slow.jsonl = "{\"reason\":\"slow\"}\n";
  const auto decoded_slow =
      DecodeDumpSlowQueriesResponse(EncodeDumpSlowQueriesResponse(slow));
  ASSERT_TRUE(decoded_slow.ok());
  EXPECT_EQ(decoded_slow->jsonl, slow.jsonl);
}

TEST(CodecV2Test, V1EncodingOmitsTraceFields) {
  // Encoding at v1 must stop before the v2 fields — byte-compatible with
  // an old peer — and decoding those bytes at v1 leaves them defaulted.
  TemporalQueryRequest request;
  request.text = "goal";
  request.trace_id_hi = 99;
  request.trace_id_lo = 98;
  request.parent_span_id = 97;
  const std::string v1 = EncodeTemporalQueryRequest(request, 1);
  const std::string v2 = EncodeTemporalQueryRequest(request, 2);
  EXPECT_LT(v1.size(), v2.size());
  const auto decoded = DecodeTemporalQueryRequest(v1, 1);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->text, "goal");
  EXPECT_EQ(decoded->trace_id_hi, 0u);
  EXPECT_EQ(decoded->trace_id_lo, 0u);
  EXPECT_EQ(decoded->parent_span_id, 0u);
  // A v2 decode of v1 bytes fails (truncated), and vice versa a v1
  // decode of v2 bytes fails (trailing bytes) — versions don't blur.
  EXPECT_FALSE(DecodeTemporalQueryRequest(v1, 2).ok());

  TemporalQueryResponse response;
  response.results = {MakePattern(0.5)};
  response.trace_blob = "blob";
  const std::string resp_v1 = EncodeTemporalQueryResponse(response, 1);
  const auto decoded_resp = DecodeTemporalQueryResponse(resp_v1, 1);
  ASSERT_TRUE(decoded_resp.ok());
  EXPECT_TRUE(decoded_resp->trace_blob.empty());
}

TEST(CodecTest, StatsCarryCubePruningCountersFromV4) {
  TemporalQueryResponse response;
  response.results = {MakePattern(0.5)};
  response.has_stats = true;
  response.stats.states_visited = 27659;
  response.stats.heap_pops = 8021;
  response.stats.grid_cells_skipped = 19638;
  response.trace_blob = "blob";

  const auto v4 = DecodeTemporalQueryResponse(
      EncodeTemporalQueryResponse(response, 4), 4);
  ASSERT_TRUE(v4.ok()) << v4.status();
  EXPECT_EQ(v4->stats.states_visited, 27659u);
  EXPECT_EQ(v4->stats.heap_pops, 8021u);
  EXPECT_EQ(v4->stats.grid_cells_skipped, 19638u);
  EXPECT_EQ(v4->trace_blob, "blob");

  // A v3 answer stops before the counters: a v3 peer decodes it as
  // before, with both counters at 0.
  const std::string v3_bytes = EncodeTemporalQueryResponse(response, 3);
  EXPECT_EQ(v3_bytes.size() + 16,
            EncodeTemporalQueryResponse(response, 4).size());
  const auto v3 = DecodeTemporalQueryResponse(v3_bytes, 3);
  ASSERT_TRUE(v3.ok()) << v3.status();
  EXPECT_EQ(v3->stats.states_visited, 27659u);
  EXPECT_EQ(v3->stats.heap_pops, 0u);
  EXPECT_EQ(v3->stats.grid_cells_skipped, 0u);
  EXPECT_EQ(v3->trace_blob, "blob");
  EXPECT_FALSE(DecodeTemporalQueryResponse(v3_bytes, 4).ok());

  // Without stats, v4 adds nothing.
  response.has_stats = false;
  EXPECT_EQ(EncodeTemporalQueryResponse(response, 4),
            EncodeTemporalQueryResponse(response, 3));
}

TEST(CodecV2Test, TruncatedV2PayloadsRejected) {
  TemporalQueryRequest request;
  request.text = "corner_kick then goal";
  request.want_trace = true;
  request.trace_id_hi = ~0ull;
  request.trace_id_lo = 1;
  request.parent_span_id = 12345;
  const std::string payload = EncodeTemporalQueryRequest(request);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeTemporalQueryRequest(payload.substr(0, n)).ok())
        << "prefix length " << n << " decoded successfully";
  }
  QbeRequest qbe;
  qbe.features = {0.25, 0.5};
  qbe.want_trace = true;
  qbe.trace_id_lo = 2;
  const std::string qbe_payload = EncodeQbeRequest(qbe);
  for (size_t n = 0; n < qbe_payload.size(); ++n) {
    EXPECT_FALSE(DecodeQbeRequest(qbe_payload.substr(0, n)).ok())
        << "prefix length " << n << " decoded successfully";
  }
}

TEST(CodecV2Test, FrameVersionParameterIsStamped) {
  const std::string frame =
      EncodeFrame(MessageType::kHealthRequest, "", 1);
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kDefaultMaxFrameBytes, &header),
            WireError::kNone);
  EXPECT_EQ(header.version, 1u);
  // A v1-capped decoder (an old server) rejects a v2-stamped frame but
  // still fills the header so it can answer typed.
  const std::string v2_frame =
      EncodeFrame(MessageType::kTemporalQueryRequest, "x", 2);
  EXPECT_EQ(DecodeFrameHeader(v2_frame, kDefaultMaxFrameBytes, &header,
                              /*max_version=*/1),
            WireError::kUnsupportedVersion);
  EXPECT_EQ(header.type, MessageType::kTemporalQueryRequest);
  EXPECT_EQ(header.payload_bytes, 1u);
}

TEST(MessageTypeTest, DumpSlowQueriesIsARequest) {
  EXPECT_TRUE(IsRequestType(MessageType::kDumpSlowQueriesRequest));
  EXPECT_FALSE(IsRequestType(MessageType::kDumpSlowQueriesResponse));
  EXPECT_STREQ(MessageTypeLabel(MessageType::kDumpSlowQueriesRequest),
               "dump_slow_queries");
}

TEST(MessageTypeTest, RequestClassification) {
  EXPECT_TRUE(IsRequestType(MessageType::kHealthRequest));
  EXPECT_TRUE(IsRequestType(MessageType::kTemporalQueryRequest));
  EXPECT_TRUE(IsRequestType(MessageType::kMetricsRequest));
  EXPECT_FALSE(IsRequestType(MessageType::kHealthResponse));
  EXPECT_FALSE(IsRequestType(MessageType::kErrorResponse));
  EXPECT_FALSE(IsRequestType(static_cast<MessageType>(77)));
}

}  // namespace
}  // namespace hmmm
