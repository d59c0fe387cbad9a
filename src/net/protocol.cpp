#include "net/protocol.h"

#include <cstring>

#include "common/bytes.h"

namespace generic::net {

namespace {

/// Frame header writer: reserves the length prefix, returns the patch
/// offset; seal_frame() back-fills the length once the body is complete.
std::size_t open_frame(std::vector<std::uint8_t>& out, FrameKind kind) {
  const std::size_t at = out.size();
  append_le<std::uint32_t>(out, 0);  // patched by seal_frame
  out.push_back(static_cast<std::uint8_t>(kind));
  return at;
}

void seal_frame(std::vector<std::uint8_t>& out, std::size_t at) {
  const auto len = static_cast<std::uint32_t>(out.size() - at - 4);
  std::memcpy(out.data() + at, &len, sizeof(len));
}

}  // namespace

std::string_view proto_error_name(ProtoError e) {
  switch (e) {
    case ProtoError::kNone: return "none";
    case ProtoError::kZeroLength: return "zero_length";
    case ProtoError::kOversized: return "oversized";
    case ProtoError::kUnknownKind: return "unknown_kind";
    case ProtoError::kShortBody: return "short_body";
    case ProtoError::kTrailingBytes: return "trailing_bytes";
    case ProtoError::kBadVersion: return "bad_version";
    case ProtoError::kBadSequence: return "bad_sequence";
    case ProtoError::kUnknownModel: return "unknown_model";
    case ProtoError::kUnknownTenant: return "unknown_tenant";
    case ProtoError::kBadPayload: return "bad_payload";
  }
  return "unknown";
}

// ---- Encoding -------------------------------------------------------------

void encode_hello(const Hello& h, std::vector<std::uint8_t>& out) {
  const std::size_t at = open_frame(out, FrameKind::kHello);
  append_le<std::uint16_t>(out, h.version);
  append_le<std::uint16_t>(out, h.tenant);
  append_le<std::uint16_t>(out, h.client);
  seal_frame(out, at);
}

void encode_hello_ack(const HelloAck& a, std::vector<std::uint8_t>& out) {
  const std::size_t at = open_frame(out, FrameKind::kHelloAck);
  append_le<std::uint16_t>(out,
                          static_cast<std::uint16_t>(a.model_queries.size()));
  for (std::uint32_t q : a.model_queries) append_le<std::uint32_t>(out, q);
  seal_frame(out, at);
}

void encode_request(const WireRequest& r, std::vector<std::uint8_t>& out) {
  const std::size_t at = open_frame(out, FrameKind::kRequest);
  append_le<std::uint64_t>(out, r.id);
  append_le<std::uint64_t>(out, r.send_us);
  append_le<std::uint16_t>(out, r.model);
  append_le<std::uint8_t>(out, r.priority);
  append_le<std::uint64_t>(out, r.deadline_rel_us);
  append_le<std::uint16_t>(out, 4);  // payload v1: one u32 query index
  append_le<std::uint32_t>(out, r.query);
  seal_frame(out, at);
}

void encode_response(const WireResponse& r, std::vector<std::uint8_t>& out) {
  const std::size_t at = open_frame(out, FrameKind::kResponse);
  append_le<std::uint64_t>(out, r.id);
  append_le<std::uint8_t>(out, r.status);
  append_le<std::int32_t>(out, r.predicted);
  append_le<std::int64_t>(out, r.margin_micro);
  append_le<std::uint32_t>(out, r.dims_used);
  append_le<std::uint32_t>(out, r.attempts);
  append_le<std::uint64_t>(out, r.finish_us);
  append_le<std::uint64_t>(out, r.latency_us);
  append_le<std::uint64_t>(out, r.version);
  append_le<std::uint32_t>(out, r.rung);
  seal_frame(out, at);
}

void encode_bye(std::vector<std::uint8_t>& out) {
  const std::size_t at = open_frame(out, FrameKind::kBye);
  seal_frame(out, at);
}

void encode_error(ProtoError e, std::vector<std::uint8_t>& out) {
  const std::size_t at = open_frame(out, FrameKind::kError);
  append_le<std::uint8_t>(out, static_cast<std::uint8_t>(e));
  seal_frame(out, at);
}

// ---- Decoding -------------------------------------------------------------

ProtoError decode_hello(const Frame& f, Hello& out) {
  ByteReader r(f.body);
  if (!r.read(out.version) || !r.read(out.tenant) || !r.read(out.client))
    return ProtoError::kShortBody;
  if (!r.done()) return ProtoError::kTrailingBytes;
  if (out.version != kProtoVersion) return ProtoError::kBadVersion;
  return ProtoError::kNone;
}

ProtoError decode_hello_ack(const Frame& f, HelloAck& out) {
  ByteReader r(f.body);
  std::uint16_t n = 0;
  if (!r.read(n)) return ProtoError::kShortBody;
  out.model_queries.clear();
  out.model_queries.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    std::uint32_t q = 0;
    if (!r.read(q)) return ProtoError::kShortBody;
    out.model_queries.push_back(q);
  }
  if (!r.done()) return ProtoError::kTrailingBytes;
  return ProtoError::kNone;
}

ProtoError decode_request(const Frame& f, WireRequest& out) {
  ByteReader r(f.body);
  std::uint16_t payload_len = 0;
  if (!r.read(out.id) || !r.read(out.send_us) || !r.read(out.model) ||
      !r.read(out.priority) || !r.read(out.deadline_rel_us) ||
      !r.read(payload_len))
    return ProtoError::kShortBody;
  // Payload v1: exactly one u32 query index. A zero-length payload is a
  // typed error (the fuzz corpus pins this), not a crash.
  if (payload_len != 4) return ProtoError::kBadPayload;
  if (!r.read(out.query)) return ProtoError::kShortBody;
  if (!r.done()) return ProtoError::kTrailingBytes;
  return ProtoError::kNone;
}

ProtoError decode_response(const Frame& f, WireResponse& out) {
  ByteReader r(f.body);
  if (!r.read(out.id) || !r.read(out.status) || !r.read(out.predicted) ||
      !r.read(out.margin_micro) || !r.read(out.dims_used) ||
      !r.read(out.attempts) || !r.read(out.finish_us) ||
      !r.read(out.latency_us) || !r.read(out.version) || !r.read(out.rung))
    return ProtoError::kShortBody;
  if (!r.done()) return ProtoError::kTrailingBytes;
  return ProtoError::kNone;
}

ProtoError decode_error(const Frame& f, ProtoError& out) {
  ByteReader r(f.body);
  std::uint8_t code = 0;
  if (!r.read(code)) return ProtoError::kShortBody;
  if (!r.done()) return ProtoError::kTrailingBytes;
  out = static_cast<ProtoError>(code);
  return ProtoError::kNone;
}

// ---- FrameParser ----------------------------------------------------------

void FrameParser::feed(const std::uint8_t* data, std::size_t len) {
  if (failed()) return;
  // Compact lazily: drop the consumed prefix once it dominates the buffer
  // so long-lived connections never grow the buffer unbounded.
  if (consumed_ > 4096 && consumed_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

std::optional<Frame> FrameParser::next() {
  if (failed()) return std::nullopt;
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  const auto len = load_le<std::uint32_t>(buf_.data() + consumed_);
  if (len == 0) {
    error_ = ProtoError::kZeroLength;
    return std::nullopt;
  }
  if (len > kMaxFrameLen) {
    error_ = ProtoError::kOversized;
    return std::nullopt;
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const std::uint8_t kind = buf_[consumed_ + 4];
  if (kind < static_cast<std::uint8_t>(FrameKind::kHello) ||
      kind > static_cast<std::uint8_t>(FrameKind::kError)) {
    error_ = ProtoError::kUnknownKind;
    return std::nullopt;
  }
  Frame f;
  f.kind = static_cast<FrameKind>(kind);
  f.body.assign(buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 5),
                buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4 + len));
  consumed_ += 4 + len;
  return f;
}

}  // namespace generic::net
