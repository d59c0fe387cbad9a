#include "obs/json.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace generic::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          // The cast matters: a plain (possibly signed) char sign-extends
          // through %x and renders 8-digit garbage instead of \u00XX.
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  // A full device often accepts every byte into the stream buffer and only
  // refuses them at the final flush: check after close, not before.
  f.close();
  if (!f) throw std::runtime_error("write failed: " + path);
}

namespace json {

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

Object& Object::str(std::string_view name, std::string_view v) {
  std::string& out = key(name);
  out += '"';
  append_json_escaped(out, v);
  out += '"';
  return *this;
}

std::string& Object::key(std::string_view name) {
  if (wrap_ >= 0) {
    out_ += ",\n";
    out_.append(static_cast<std::size_t>(wrap_), ' ');
    wrap_ = -1;
  } else if (indent_ > 0) {
    out_ += first_ ? "\n" : ",\n";
    out_.append(static_cast<std::size_t>(indent_), ' ');
  } else if (!first_) {
    out_ += ", ";
  }
  first_ = false;
  out_ += '"';
  append_json_escaped(out_, name);
  out_ += "\": ";
  return out_;
}

void Object::close() {
  if (indent_ > 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_ - 2), ' ');
  }
  out_ += '}';
}

}  // namespace json
}  // namespace generic::obs
