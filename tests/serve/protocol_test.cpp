// Wire-format round-trips and strict-decoding failure cases for the
// serving protocol.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "serve/protocol.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

/// Strips the length prefix and checks it matched the payload size.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  EXPECT_GE(frame.size(), 6u);  // u32 len + version + type
  std::uint32_t len = 0;
  std::memcpy(&len, frame.data(), 4);  // little-endian host assumed in tests
  EXPECT_EQ(len, frame.size() - 4);
  return {frame.begin() + 4, frame.end()};
}

TEST(Protocol, ClassifyBatchRequestRoundTrip) {
  ClassifyBatchRequest req;
  req.user_id = 0x1122334455667788ULL;
  req.messages = {"Subject: a\n\nbody one", "", "Subject: b\n\nbody two"};
  const auto payload = payload_of(encode_frame(Request(req)));
  const Request back = decode_request(payload);
  const auto& got = std::get<ClassifyBatchRequest>(back);
  EXPECT_EQ(got.user_id, req.user_id);
  EXPECT_EQ(got.messages, req.messages);
}

TEST(Protocol, TrainAndUntrainRoundTrip) {
  TrainRequest t;
  t.user_id = 7;
  t.as_spam = false;
  t.copies = 3;
  t.message = "Subject: x\n\nhello";
  const auto tback =
      std::get<TrainRequest>(decode_request(payload_of(encode_frame(Request(t)))));
  EXPECT_EQ(tback.user_id, 7u);
  EXPECT_FALSE(tback.as_spam);
  EXPECT_EQ(tback.copies, 3u);
  EXPECT_EQ(tback.message, t.message);

  UntrainRequest u;
  u.user_id = 9;
  u.as_spam = true;
  u.copies = 1;
  u.message = "m";
  const auto uback = std::get<UntrainRequest>(
      decode_request(payload_of(encode_frame(Request(u)))));
  EXPECT_EQ(uback.user_id, 9u);
  EXPECT_TRUE(uback.as_spam);
}

TEST(Protocol, EmptyBodyRequestsRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<StatsRequest>(
      decode_request(payload_of(encode_frame(Request(StatsRequest{}))))));
  EXPECT_TRUE(std::holds_alternative<ShutdownRequest>(
      decode_request(payload_of(encode_frame(Request(ShutdownRequest{}))))));
}

TEST(Protocol, ResponsesRoundTripWithScoreBitsIntact) {
  ClassifyBatchResponse c;
  c.results = {{0.123456789012345, 2}, {1.0, 0}, {5e-324, 1}};  // denormal too
  const auto cback = std::get<ClassifyBatchResponse>(
      decode_response(payload_of(encode_frame(Response(c)))));
  ASSERT_EQ(cback.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cback.results[i].score, c.results[i].score);
    EXPECT_EQ(cback.results[i].verdict, c.results[i].verdict);
  }

  TrainResponse t{/*generation=*/42, /*spam=*/3, /*ham=*/1};
  const auto tback = std::get<TrainResponse>(
      decode_response(payload_of(encode_frame(Response(t)))));
  EXPECT_EQ(tback.overlay_generation, 42u);
  EXPECT_EQ(tback.overlay_spam, 3u);
  EXPECT_EQ(tback.overlay_ham, 1u);

  StatsResponse s;
  s.users = 64;
  s.shards = 4;
  s.classified_messages = 12345;
  const auto sback = std::get<StatsResponse>(
      decode_response(payload_of(encode_frame(Response(s)))));
  EXPECT_EQ(sback.users, 64u);
  EXPECT_EQ(sback.shards, 4u);
  EXPECT_EQ(sback.classified_messages, 12345u);

  ErrorResponse e{"boom"};
  EXPECT_EQ(std::get<ErrorResponse>(
                decode_response(payload_of(encode_frame(Response(e)))))
                .message,
            "boom");
}

TEST(Protocol, V2RequestIdsAndErrorCodesRoundTrip) {
  TrainRequest t;
  t.user_id = 7;
  t.message = "m";
  t.request_id = 0xFEEDFACE12345678ull;
  EXPECT_EQ(std::get<TrainRequest>(
                decode_request(payload_of(encode_frame(Request(t)))))
                .request_id,
            t.request_id);
  // Default (no id) is preserved as 0 = "not idempotent".
  t.request_id = 0;
  EXPECT_EQ(std::get<TrainRequest>(
                decode_request(payload_of(encode_frame(Request(t)))))
                .request_id,
            0u);

  UntrainRequest u;
  u.user_id = 7;
  u.message = "m";
  u.request_id = 99;
  EXPECT_EQ(std::get<UntrainRequest>(
                decode_request(payload_of(encode_frame(Request(u)))))
                .request_id,
            99u);

  ErrorResponse e{"slow down"};
  e.code = static_cast<std::uint8_t>(ErrorCode::kOverloaded);
  const auto eback = std::get<ErrorResponse>(
      decode_response(payload_of(encode_frame(Response(e)))));
  EXPECT_EQ(eback.message, "slow down");
  EXPECT_EQ(eback.code, static_cast<std::uint8_t>(ErrorCode::kOverloaded));
  // Aggregate-init without a code still means kGeneric.
  EXPECT_EQ(ErrorResponse{"boom"}.code,
            static_cast<std::uint8_t>(ErrorCode::kGeneric));
}

TEST(Protocol, V2StatsTelemetryRoundTrips) {
  StatsResponse s;
  s.uptime_ms = 1;
  s.wal_records = 2;
  s.wal_bytes = 3;
  s.wal_snapshots = 4;
  s.recovery_replayed_records = 5;
  s.recovery_torn_dropped = 6;
  s.recovery_ms = 7;
  s.recovery_snapshot_users = 8;
  s.deduped_mutations = 9;
  s.shed_connections = 10;
  s.active_connections = 11;
  const auto back = std::get<StatsResponse>(
      decode_response(payload_of(encode_frame(Response(s)))));
  EXPECT_EQ(back.uptime_ms, 1u);
  EXPECT_EQ(back.wal_records, 2u);
  EXPECT_EQ(back.wal_bytes, 3u);
  EXPECT_EQ(back.wal_snapshots, 4u);
  EXPECT_EQ(back.recovery_replayed_records, 5u);
  EXPECT_EQ(back.recovery_torn_dropped, 6u);
  EXPECT_EQ(back.recovery_ms, 7u);
  EXPECT_EQ(back.recovery_snapshot_users, 8u);
  EXPECT_EQ(back.deduped_mutations, 9u);
  EXPECT_EQ(back.shed_connections, 10u);
  EXPECT_EQ(back.active_connections, 11u);
}

TEST(Protocol, V3ReplicationMessagesRoundTrip) {
  ReplicateBatchRequest rb;
  WalRecord r;
  r.op = kWalOpTrain;
  r.seqno = 0xFFFFFFFFFFFFFFFEull;
  r.user_id = 5;
  r.request_id = 77;
  r.as_spam = true;
  r.copies = 3;
  r.message = std::string("hostile\0payload\r\n", 17);
  WalRecord r2;
  r2.op = kWalOpUntrain;
  r2.seqno = 1;
  r2.message = "";  // empty body is legal on the wire too
  rb.records = {{2, r}, {0, r2}};

  const auto back = std::get<ReplicateBatchRequest>(
      decode_request(payload_of(encode_frame(Request(rb)))));
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].shard, 2u);
  EXPECT_EQ(back.records[0].record.op, kWalOpTrain);
  EXPECT_EQ(back.records[0].record.seqno, r.seqno);
  EXPECT_EQ(back.records[0].record.user_id, 5u);
  EXPECT_EQ(back.records[0].record.request_id, 77u);
  EXPECT_TRUE(back.records[0].record.as_spam);
  EXPECT_EQ(back.records[0].record.copies, 3u);
  EXPECT_EQ(back.records[0].record.message, r.message);
  EXPECT_EQ(back.records[1].shard, 0u);
  EXPECT_EQ(back.records[1].record.message, "");

  EXPECT_TRUE(std::holds_alternative<PromoteRequest>(
      decode_request(payload_of(encode_frame(Request(PromoteRequest{}))))));

  ReplicateAckResponse ack;
  ack.acked_seqno = 901;
  ack.applied_records = 345;
  const auto aback = std::get<ReplicateAckResponse>(
      decode_response(payload_of(encode_frame(Response(ack)))));
  EXPECT_EQ(aback.acked_seqno, 901u);
  EXPECT_EQ(aback.applied_records, 345u);

  PromoteResponse p;
  p.last_applied_seqno = 901;
  EXPECT_EQ(std::get<PromoteResponse>(
                decode_response(payload_of(encode_frame(Response(p)))))
                .last_applied_seqno,
            901u);

  // A corrupt embedded WAL body (CRC mismatch) must be a loud ParseError.
  auto bent = payload_of(encode_frame(Request(rb)));
  bent[bent.size() - 3] ^= 0x20;  // inside the last record's message bytes
  EXPECT_THROW(decode_request(bent), ParseError);
}

TEST(Protocol, V3StatsAndRedirectRoundTrip) {
  StatsResponse s;
  s.repl_shipped_seqno = 1;
  s.repl_acked_seqno = 2;
  s.repl_lag_records = 3;
  s.standby_applied_records = 4;
  s.group_commit_windows = 5;
  s.incremental_snapshot_bytes = 6;
  const auto back = std::get<StatsResponse>(
      decode_response(payload_of(encode_frame(Response(s)))));
  EXPECT_EQ(back.repl_shipped_seqno, 1u);
  EXPECT_EQ(back.repl_acked_seqno, 2u);
  EXPECT_EQ(back.repl_lag_records, 3u);
  EXPECT_EQ(back.standby_applied_records, 4u);
  EXPECT_EQ(back.group_commit_windows, 5u);
  EXPECT_EQ(back.incremental_snapshot_bytes, 6u);

  ErrorResponse e;
  e.message = "standby refuses train";
  e.code = static_cast<std::uint8_t>(ErrorCode::kNotPrimary);
  e.redirect = "unix:/tmp/primary.sock";
  const auto eback = std::get<ErrorResponse>(
      decode_response(payload_of(encode_frame(Response(e)))));
  EXPECT_EQ(eback.code, static_cast<std::uint8_t>(ErrorCode::kNotPrimary));
  EXPECT_EQ(eback.redirect, "unix:/tmp/primary.sock");
  // Pre-redirect encoders never existed for v3, but an empty redirect is
  // the common case and must stay empty through the wire.
  e.redirect.clear();
  EXPECT_EQ(std::get<ErrorResponse>(
                decode_response(payload_of(encode_frame(Response(e)))))
                .redirect,
            "");
}

TEST(Protocol, RejectsWrongVersion) {
  auto payload = payload_of(encode_frame(Request(StatsRequest{})));
  payload[0] = kProtocolVersion + 1;
  EXPECT_THROW(decode_request(payload), ParseError);
}

TEST(Protocol, RejectsUnknownType) {
  auto payload = payload_of(encode_frame(Request(StatsRequest{})));
  payload[1] = 200;
  EXPECT_THROW(decode_request(payload), ParseError);
}

TEST(Protocol, RejectsTruncatedBody) {
  TrainRequest t;
  t.message = "hello world";
  auto payload = payload_of(encode_frame(Request(t)));
  payload.erase(payload.end() - 4, payload.end());
  EXPECT_THROW(decode_request(payload), ParseError);
}

TEST(Protocol, RejectsTrailingBytes) {
  auto payload = payload_of(encode_frame(Request(ShutdownRequest{})));
  payload.push_back(0);
  EXPECT_THROW(decode_request(payload), ParseError);
}

TEST(Protocol, RejectsRequestDecodedAsResponse) {
  const auto payload = payload_of(encode_frame(Request(StatsRequest{})));
  EXPECT_THROW(decode_response(payload), ParseError);
}

TEST(Protocol, VerdictByteMapping) {
  EXPECT_EQ(verdict_to_byte(spambayes::Verdict::ham), 0);
  EXPECT_EQ(verdict_to_byte(spambayes::Verdict::unsure), 1);
  EXPECT_EQ(verdict_to_byte(spambayes::Verdict::spam), 2);
  EXPECT_EQ(verdict_from_byte(2), spambayes::Verdict::spam);
  EXPECT_THROW(verdict_from_byte(3), ParseError);
}

}  // namespace
}  // namespace sbx::serve
