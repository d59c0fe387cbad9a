#include "obs/json.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/obs.h"

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

namespace {

void put_file(const std::string& path, std::string_view content,
              std::ios::openmode mode) {
  std::ofstream f(path, std::ios::binary | mode);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  // A full device often accepts every byte into the stream buffer and only
  // refuses them at the final flush: check after close, not before.
  f.close();
  if (!f) throw std::runtime_error("write failed: " + path);
}

}  // namespace

void write_file(const std::string& path, std::string_view content) {
  put_file(path, content, std::ios::trunc);
}

void append_file(const std::string& path, std::string_view content) {
  put_file(path, content, std::ios::app);
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
  if (indent_ > 0 && !first_) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_ - 2), ' ');
  }
  out_ += '}';
}

namespace {

void append_histogram(std::string& out, const HistogramSnapshot& h,
                      bool full) {
  Object o(out);
  o.u64("count", h.count);
  if (full) o.u64("sum", h.sum);
  o.u64("p50", h.percentile(0.50))
      .u64("p95", h.percentile(0.95))
      .u64("p99", h.percentile(0.99));
  if (full) {
    Object buckets(o.key("buckets"));
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      if (h.buckets[i] != 0) buckets.u64(std::to_string(i), h.buckets[i]);
    buckets.close();
  }
  o.close();
}

}  // namespace

void histogram(std::string& out, const HistogramSnapshot& h) {
  append_histogram(out, h, true);
}

void histogram_summary(std::string& out, const HistogramSnapshot& h) {
  append_histogram(out, h, false);
}

ChromeTrace::ChromeTrace(std::string& out) : out_(out) {
  out_ += "{\n\"traceEvents\": [\n";
}

std::string& ChromeTrace::row() {
  if (!first_) out_ += ",\n";
  first_ = false;
  return out_;
}

void ChromeTrace::thread_name(std::uint64_t tid, std::string_view name) {
  Object o(row());
  o.str("ph", "M").u64("pid", 1).u64("tid", tid).str("name", "thread_name");
  Object(o.key("args")).str("name", name).close();
  o.close();
}

std::string& ChromeTrace::other_data() {
  out_ += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
  return out_;
}

}  // namespace json
}  // namespace generic::obs
