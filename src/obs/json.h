// The one JSON writer behind every generic.*.v1 document: the metrics,
// trace, rtrace, flight, serve, lifecycle, chaos, fleet, campaign and
// trade-off documents all render through it (docs/observability.md).
//
// Reports are fixed-order and byte-stable: the same value always renders
// to the same bytes, on every platform and locale. Two layouts cover every
// schema: inline (`{"a": 1, "b": 2}`, `[1, 2]`) and block (one field or
// element per line at a given indent, the closing bracket two spaces to
// the left; an empty block object or list renders `{}` or `[]`). Doubles
// keep nine significant digits; strings are escaped. The two Chrome
// trace documents share one envelope, ChromeTrace, whose event rows are
// inline objects at column 0. write_file() and append_file() are the one
// checked way to put a document on disk.
#pragma once

#include <cstdint>
#include <ranges>
#include <string>
#include <string_view>

namespace generic::obs {

/// Append `s` escaped for use inside a JSON string literal (no surrounding
/// quotes): quotes, backslashes and all control characters < 0x20 are
/// encoded; other bytes pass through so UTF-8 survives.
void append_json_escaped(std::string& out, std::string_view s);

/// Write `content` to `path`, replacing the file. Throws std::runtime_error
/// when the file cannot be opened or any byte fails to land, including a
/// failure that only surfaces when the stream is flushed at close.
void write_file(const std::string& path, std::string_view content);

/// Append `content` to `path`, creating the file; fails as write_file().
void append_file(const std::string& path, std::string_view content);

struct HistogramSnapshot;

namespace json {

/// Nine significant digits: round-trips an accuracy, locale-independent.
void append_double(std::string& out, double v);

/// Writes one object's fields in call order. The constructor opens the
/// brace, close() ends it; nothing is written in a destructor.
class Object {
 public:
  /// Inline: every field on the opening line.
  explicit Object(std::string& out) : Object(out, 0) {}
  /// Block (indent > 0): each field on its own line at `indent` spaces.
  /// A block object with no field closes as `{}`.
  Object(std::string& out, int indent) : out_(out), indent_(indent) {
    out_ += '{';
  }

  Object& u64(std::string_view name, std::uint64_t v) {
    key(name) += std::to_string(v);
    return *this;
  }
  Object& dbl(std::string_view name, double v) {
    append_double(key(name), v);
    return *this;
  }
  Object& boolean(std::string_view name, bool v) {
    key(name) += v ? "true" : "false";
    return *this;
  }
  Object& str(std::string_view name, std::string_view v);

  /// Start the next field by hand: writes the separator and `"name": `,
  /// and returns the buffer for the caller to append the value to.
  std::string& key(std::string_view name);

  /// Put the next field of an inline object on a new line at `indent`.
  Object& wrap(int indent) {
    wrap_ = indent;
    return *this;
  }

  void close();

 private:
  std::string& out_;
  int indent_;
  int wrap_ = -1;
  bool first_ = true;
};

/// Append `items` as an array, rendering each element with `item(x)`.
/// Block (indent > 0): "[]" when empty, else one element per line at
/// `indent` and the closing bracket two spaces to the left. Inline
/// (indent == 0): "[a, b]".
template <std::ranges::input_range Range, class Fn>
void list(std::string& out, const Range& items, int indent, Fn&& item) {
  out += '[';
  bool first = true;
  for (const auto& x : items) {
    if (indent > 0) {
      out += first ? "\n" : ",\n";
      out.append(static_cast<std::size_t>(indent), ' ');
    } else if (!first) {
      out += ", ";
    }
    first = false;
    item(x);
  }
  if (indent > 0 && !first) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent - 2), ' ');
  }
  out += ']';
}

/// A latency histogram in full, `{"count", "sum", "p50", "p95", "p99",
/// "buckets"}`, with only the occupied buckets as `{"bit_width": count}`.
void histogram(std::string& out, const HistogramSnapshot& h);

/// The same histogram summarized: `{"count", "p50", "p95", "p99"}`.
void histogram_summary(std::string& out, const HistogramSnapshot& h);

/// The Chrome trace-event envelope (Perfetto, chrome://tracing):
///
///   {
///   "traceEvents": [
///   <one event row per line>
///   ],
///   "displayTimeUnit": "ms",
///   "otherData": <inline object>
///   }
///
/// The constructor opens it. Each row() returns the buffer for one inline
/// event Object; other_data() ends the rows and returns the buffer for the
/// otherData Object; close() ends the document.
class ChromeTrace {
 public:
  explicit ChromeTrace(std::string& out);

  std::string& row();
  /// The metadata row naming track `tid`.
  void thread_name(std::uint64_t tid, std::string_view name);
  std::string& other_data();
  void close() { out_ += "\n}\n"; }

 private:
  std::string& out_;
  bool first_ = true;
};

}  // namespace json
}  // namespace generic::obs
