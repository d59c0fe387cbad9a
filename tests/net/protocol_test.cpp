// Wire-protocol contract (src/net/protocol.h): every encode/decode pair
// round-trips exactly, and the parser is TOTAL — the fuzz-ish corpus below
// (truncated frames, zero/oversized length prefixes, zero-length payloads,
// garbage mid-stream, adversarial split feeds, seeded random byte soup)
// must land every malformed input in exactly one typed ProtoError without
// crashing. The asan/ubsan presets run this suite with sanitizers on,
// which is what turns "no crash" into "no UB".
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"

namespace generic::net {
namespace {

std::optional<Frame> parse_one(const std::vector<std::uint8_t>& bytes,
                               FrameParser& p) {
  p.feed(bytes.data(), bytes.size());
  return p.next();
}

TEST(ProtocolTest, HelloRoundTrip) {
  Hello in;
  in.tenant = 7;
  in.client = 11;
  std::vector<std::uint8_t> bytes;
  encode_hello(in, bytes);

  FrameParser p;
  auto f = parse_one(bytes, p);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FrameKind::kHello);
  Hello out;
  ASSERT_EQ(decode_hello(*f, out), ProtoError::kNone);
  EXPECT_EQ(out.version, kProtoVersion);
  EXPECT_EQ(out.tenant, 7);
  EXPECT_EQ(out.client, 11);
  EXPECT_FALSE(p.next().has_value());
  EXPECT_FALSE(p.failed());
}

TEST(ProtocolTest, HelloAckRoundTrip) {
  HelloAck in;
  in.model_queries = {160, 320, 7};
  std::vector<std::uint8_t> bytes;
  encode_hello_ack(in, bytes);

  FrameParser p;
  auto f = parse_one(bytes, p);
  ASSERT_TRUE(f.has_value());
  HelloAck out;
  ASSERT_EQ(decode_hello_ack(*f, out), ProtoError::kNone);
  EXPECT_EQ(out.model_queries, in.model_queries);
}

TEST(ProtocolTest, RequestRoundTrip) {
  WireRequest in;
  in.id = 0x0123456789ABCDEFull;
  in.send_us = 42000;
  in.model = 2;
  in.priority = 1;
  in.deadline_rel_us = 4000;
  in.query = 159;
  std::vector<std::uint8_t> bytes;
  encode_request(in, bytes);

  FrameParser p;
  auto f = parse_one(bytes, p);
  ASSERT_TRUE(f.has_value());
  WireRequest out;
  ASSERT_EQ(decode_request(*f, out), ProtoError::kNone);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.send_us, in.send_us);
  EXPECT_EQ(out.model, in.model);
  EXPECT_EQ(out.priority, in.priority);
  EXPECT_EQ(out.deadline_rel_us, in.deadline_rel_us);
  EXPECT_EQ(out.query, in.query);
}

TEST(ProtocolTest, ResponseRoundTripWithNegativeFields) {
  WireResponse in;
  in.id = 99;
  in.status = kStatusPriorityShed;
  in.predicted = -1;
  in.margin_micro = -123456789;
  in.dims_used = 512;
  in.attempts = 3;
  in.finish_us = 1000000;
  in.latency_us = 2500;
  in.version = 4;
  in.rung = 2;
  std::vector<std::uint8_t> bytes;
  encode_response(in, bytes);

  FrameParser p;
  auto f = parse_one(bytes, p);
  ASSERT_TRUE(f.has_value());
  WireResponse out;
  ASSERT_EQ(decode_response(*f, out), ProtoError::kNone);
  EXPECT_EQ(out.predicted, -1);
  EXPECT_EQ(out.margin_micro, -123456789);
  EXPECT_EQ(out.status, kStatusPriorityShed);
  EXPECT_EQ(out.rung, 2u);
}

TEST(ProtocolTest, ByeAndErrorRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_bye(bytes);
  encode_error(ProtoError::kUnknownTenant, bytes);

  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  auto bye = p.next();
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->kind, FrameKind::kBye);
  EXPECT_TRUE(bye->body.empty());
  auto err = p.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, FrameKind::kError);
  ProtoError code = ProtoError::kNone;
  ASSERT_EQ(decode_error(*err, code), ProtoError::kNone);
  EXPECT_EQ(code, ProtoError::kUnknownTenant);
}

TEST(ProtocolTest, ByteAtATimeFeedStillYieldsFrames) {
  WireRequest in;
  in.id = 5;
  in.query = 3;
  std::vector<std::uint8_t> bytes;
  encode_request(in, bytes);
  encode_bye(bytes);

  FrameParser p;
  std::size_t frames = 0;
  for (std::uint8_t b : bytes) {
    p.feed(&b, 1);
    while (p.next()) ++frames;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_FALSE(p.failed());
  EXPECT_EQ(p.buffered(), 0u);
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  return out;
}

TEST(ProtocolTest, FrameBytesMatchFixture) {
  // One frame of each kind, pinned byte for byte (u32 LE length | kind |
  // little-endian body), then decoded back from the fixture bytes.
  const Hello hello{kProtoVersion, 0x0203, 0x0405};
  const HelloAck ack{{160, 0x01020304}};
  WireRequest req;
  req.id = 0x0123456789ABCDEFull;
  req.send_us = 42000;
  req.model = 2;
  req.priority = 1;
  req.deadline_rel_us = 4000;
  req.query = 159;
  WireResponse resp;
  resp.id = 99;
  resp.status = kStatusPriorityShed;
  resp.predicted = -1;
  resp.margin_micro = -123456789;
  resp.dims_used = 512;
  resp.attempts = 3;
  resp.finish_us = 1000000;
  resp.latency_us = 2500;
  resp.version = 4;
  resp.rung = 2;

  const std::string kHello = "0700000001" "0100" "0302" "0504";
  const std::string kAck = "0b00000002" "0200" "a0000000" "04030201";
  const std::string kRequest =
      "2200000003" "efcdab8967452301" "10a4000000000000" "0200" "01"
      "a00f000000000000" "0400" "9f000000";
  const std::string kResponse =
      "3a00000004" "6300000000000000" "07" "ffffffff" "eb32a4f8ffffffff"
      "00020000" "03000000" "40420f0000000000" "c409000000000000"
      "0400000000000000" "02000000";
  const std::string kBye = "0100000005";
  const std::string kError = "0200000006" "09";

  std::vector<std::uint8_t> bytes;
  encode_hello(hello, bytes);
  EXPECT_EQ(to_hex(bytes), kHello);
  bytes.clear();
  encode_hello_ack(ack, bytes);
  EXPECT_EQ(to_hex(bytes), kAck);
  bytes.clear();
  encode_request(req, bytes);
  EXPECT_EQ(to_hex(bytes), kRequest);
  bytes.clear();
  encode_response(resp, bytes);
  EXPECT_EQ(to_hex(bytes), kResponse);
  bytes.clear();
  encode_bye(bytes);
  EXPECT_EQ(to_hex(bytes), kBye);
  bytes.clear();
  encode_error(ProtoError::kUnknownTenant, bytes);
  EXPECT_EQ(to_hex(bytes), kError);

  FrameParser p;
  const auto wire =
      from_hex(kHello + kAck + kRequest + kResponse + kBye + kError);
  p.feed(wire.data(), wire.size());

  auto f = p.next();
  ASSERT_TRUE(f.has_value());
  Hello h;
  ASSERT_EQ(decode_hello(*f, h), ProtoError::kNone);
  EXPECT_EQ(h.tenant, hello.tenant);
  EXPECT_EQ(h.client, hello.client);

  f = p.next();
  ASSERT_TRUE(f.has_value());
  HelloAck a;
  ASSERT_EQ(decode_hello_ack(*f, a), ProtoError::kNone);
  EXPECT_EQ(a.model_queries, ack.model_queries);

  f = p.next();
  ASSERT_TRUE(f.has_value());
  WireRequest rq;
  ASSERT_EQ(decode_request(*f, rq), ProtoError::kNone);
  EXPECT_EQ(rq.id, req.id);
  EXPECT_EQ(rq.send_us, req.send_us);
  EXPECT_EQ(rq.model, req.model);
  EXPECT_EQ(rq.priority, req.priority);
  EXPECT_EQ(rq.deadline_rel_us, req.deadline_rel_us);
  EXPECT_EQ(rq.query, req.query);

  f = p.next();
  ASSERT_TRUE(f.has_value());
  WireResponse rs;
  ASSERT_EQ(decode_response(*f, rs), ProtoError::kNone);
  EXPECT_EQ(rs.id, resp.id);
  EXPECT_EQ(rs.status, resp.status);
  EXPECT_EQ(rs.predicted, resp.predicted);
  EXPECT_EQ(rs.margin_micro, resp.margin_micro);
  EXPECT_EQ(rs.dims_used, resp.dims_used);
  EXPECT_EQ(rs.attempts, resp.attempts);
  EXPECT_EQ(rs.finish_us, resp.finish_us);
  EXPECT_EQ(rs.latency_us, resp.latency_us);
  EXPECT_EQ(rs.version, resp.version);
  EXPECT_EQ(rs.rung, resp.rung);

  f = p.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FrameKind::kBye);
  EXPECT_TRUE(f->body.empty());

  f = p.next();
  ASSERT_TRUE(f.has_value());
  ProtoError code = ProtoError::kNone;
  ASSERT_EQ(decode_error(*f, code), ProtoError::kNone);
  EXPECT_EQ(code, ProtoError::kUnknownTenant);
  EXPECT_FALSE(p.next().has_value());
  EXPECT_FALSE(p.failed());
}

// ---- The malformed-input corpus (satellite: fuzz-ish typed errors) --------

TEST(ProtocolCorpus, TruncatedFrameIsNotAFrameAndNotAnError) {
  std::vector<std::uint8_t> bytes;
  encode_bye(bytes);
  bytes.pop_back();  // drop the kind byte: header promises more than sent

  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(p.next().has_value());
  EXPECT_FALSE(p.failed());  // incomplete, not invalid
  EXPECT_GT(p.buffered(), 0u);
}

TEST(ProtocolCorpus, ZeroLengthPrefixIsTyped) {
  const std::uint8_t bytes[] = {0, 0, 0, 0};
  FrameParser p;
  p.feed(bytes, sizeof(bytes));
  EXPECT_FALSE(p.next().has_value());
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ProtoError::kZeroLength);
}

TEST(ProtocolCorpus, OversizedLengthPrefixIsTypedWithoutBuffering) {
  // length = kMaxFrameLen + 1: must fail from the 4 header bytes alone,
  // never waiting for (or allocating) the advertised body.
  const std::uint32_t len = kMaxFrameLen + 1;
  const std::uint8_t bytes[] = {
      static_cast<std::uint8_t>(len & 0xFF),
      static_cast<std::uint8_t>((len >> 8) & 0xFF),
      static_cast<std::uint8_t>((len >> 16) & 0xFF),
      static_cast<std::uint8_t>((len >> 24) & 0xFF)};
  FrameParser p;
  p.feed(bytes, sizeof(bytes));
  EXPECT_FALSE(p.next().has_value());
  EXPECT_EQ(p.error(), ProtoError::kOversized);
}

TEST(ProtocolCorpus, UnknownKindIsTyped) {
  const std::uint8_t bytes[] = {1, 0, 0, 0, 0x7F};
  FrameParser p;
  p.feed(bytes, sizeof(bytes));
  EXPECT_FALSE(p.next().has_value());
  EXPECT_EQ(p.error(), ProtoError::kUnknownKind);
}

TEST(ProtocolCorpus, ErrorIsStickyAndLaterFeedsAreDiscarded) {
  const std::uint8_t bad[] = {0, 0, 0, 0};
  FrameParser p;
  p.feed(bad, sizeof(bad));
  EXPECT_FALSE(p.next().has_value());
  ASSERT_TRUE(p.failed());

  std::vector<std::uint8_t> good;
  encode_bye(good);
  p.feed(good.data(), good.size());
  EXPECT_FALSE(p.next().has_value());  // still failed; nothing revives it
  EXPECT_EQ(p.error(), ProtoError::kZeroLength);
}

TEST(ProtocolCorpus, GarbageAfterValidFrameFailsAtTheGarbage) {
  std::vector<std::uint8_t> bytes;
  encode_bye(bytes);
  const std::uint8_t junk[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xAA, 0xBB};
  bytes.insert(bytes.end(), junk, junk + sizeof(junk));

  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  auto f = p.next();
  ASSERT_TRUE(f.has_value());  // the valid frame still comes out
  EXPECT_EQ(f->kind, FrameKind::kBye);
  EXPECT_FALSE(p.next().has_value());
  EXPECT_EQ(p.error(), ProtoError::kOversized);  // 0xFFFFFFFF length
}

TEST(ProtocolCorpus, ZeroLengthRequestPayloadIsTypedBadPayload) {
  // Hand-build a kRequest whose payload_len is 0 (no query index at all).
  std::vector<std::uint8_t> bytes;
  WireRequest r;
  encode_request(r, bytes);
  // Patch payload_len (last 6 bytes are u16 payload_len + u32 query):
  // truncate the query and rewrite payload_len = 0, then fix the prefix.
  bytes.resize(bytes.size() - 4);           // drop query
  bytes[bytes.size() - 2] = 0;              // payload_len lo
  bytes[bytes.size() - 1] = 0;              // payload_len hi
  const std::uint32_t len = static_cast<std::uint32_t>(bytes.size() - 4);
  bytes[0] = static_cast<std::uint8_t>(len & 0xFF);
  bytes[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  bytes[2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  bytes[3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);

  FrameParser p;
  auto f = parse_one(bytes, p);
  ASSERT_TRUE(f.has_value());
  WireRequest out;
  EXPECT_EQ(decode_request(*f, out), ProtoError::kBadPayload);
}

TEST(ProtocolCorpus, ShortAndTrailingBodiesAreTyped) {
  std::vector<std::uint8_t> bytes;
  encode_hello(Hello{}, bytes);
  FrameParser p;
  auto f = parse_one(bytes, p);
  ASSERT_TRUE(f.has_value());

  Frame short_f = *f;
  short_f.body.resize(3);  // half a tenant field
  Hello h;
  EXPECT_EQ(decode_hello(short_f, h), ProtoError::kShortBody);

  Frame long_f = *f;
  long_f.body.push_back(0xEE);
  EXPECT_EQ(decode_hello(long_f, h), ProtoError::kTrailingBytes);

  Frame wrong_version = *f;
  wrong_version.body[0] = 0xFE;
  wrong_version.body[1] = 0xCA;
  EXPECT_EQ(decode_hello(wrong_version, h), ProtoError::kBadVersion);
}

TEST(ProtocolCorpus, SeededRandomByteSoupNeverCrashes) {
  // 64 seeded streams of random bytes, fed in random chunk sizes. Every
  // stream must either keep yielding (possibly garbage-bodied but
  // well-framed) frames or land in a typed error — and decoders must
  // return a typed verdict on whatever comes out. Run under asan/ubsan
  // this is the no-UB proof for arbitrary network input.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(0xF422ED ^ (seed * 0x9E3779B97F4A7C15ull));
    std::vector<std::uint8_t> soup(2048);
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.below(256));

    FrameParser p;
    std::size_t off = 0;
    while (off < soup.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.below(97), soup.size() - off);
      p.feed(soup.data() + off, chunk);
      off += chunk;
      while (auto f = p.next()) {
        Hello h;
        HelloAck a;
        WireRequest req;
        WireResponse resp;
        ProtoError code;
        (void)decode_hello(*f, h);
        (void)decode_hello_ack(*f, a);
        (void)decode_request(*f, req);
        (void)decode_response(*f, resp);
        (void)decode_error(*f, code);
      }
      if (p.failed()) break;
    }
    SUCCEED();
  }
}

TEST(ProtocolCorpus, LongLivedParserCompactsItsBuffer) {
  // Feed thousands of frames through one parser; buffered() returning to 0
  // and the soup above bound memory, this pins the consumed-prefix compact.
  FrameParser p;
  std::vector<std::uint8_t> bytes;
  WireRequest r;
  for (int i = 0; i < 5000; ++i) {
    bytes.clear();
    r.id = static_cast<std::uint64_t>(i);
    encode_request(r, bytes);
    p.feed(bytes.data(), bytes.size());
    auto f = p.next();
    ASSERT_TRUE(f.has_value());
    WireRequest out;
    ASSERT_EQ(decode_request(*f, out), ProtoError::kNone);
    ASSERT_EQ(out.id, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(p.buffered(), 0u);
  EXPECT_FALSE(p.failed());
}

}  // namespace
}  // namespace generic::net
