// The one JSON writer behind every generic.*.v1 document.
//
// Reports are fixed-order and byte-stable: the same value always renders
// to the same bytes, on every platform and locale. Two layouts cover every
// schema: inline (`{"a": 1, "b": 2}`, `[1, 2]`) and block (one field or
// element per line at a given indent, the closing bracket two spaces to
// the left). Doubles keep nine significant digits; strings are escaped.
// write_file() is the one checked way to put a document on disk.
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

/// `s` as a complete JSON string literal, quotes included.
std::string json_escape(std::string_view s);

/// Write `content` to `path`, replacing the file. Throws std::runtime_error
/// when the file cannot be opened or any byte fails to land, including a
/// failure that only surfaces when the stream is flushed at close.
void write_file(const std::string& path, std::string_view content);

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

}  // namespace json
}  // namespace generic::obs
