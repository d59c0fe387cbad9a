// Shared helpers for the table/figure harnesses and the CLI tools:
// fixed-width table printing, strict flag parsing, the tools' checked
// output writes and the serving tools' futures-vs-report check. Each bench
// binary regenerates one table or figure of the paper (see DESIGN.md §2);
// output is plain text shaped like the paper's rows so runs can be diffed
// against EXPERIMENTS.md. Wall-clock timing lives in obs::Stopwatch
// (src/obs).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/kernels.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/rtrace.h"
#include "serve/types.h"

namespace generic::bench {

/// Strict command-line parser for the bench/tool harnesses. Flags are
/// spelled `--key` or `--key=value` (plus the historical `--threads N`
/// two-token spelling). Construction rejects positional arguments and the
/// malformed `--key=` (empty value); done() rejects any flag no accessor
/// asked about. Errors print to stderr and exit(2), so a typo'd sweep
/// fails loudly instead of silently running with defaults.
class Flags {
 public:
  Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "bench") {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0 || arg.size() == 2)
        die("unexpected argument '" + std::string(arg) +
            "' (flags are --key or --key=value)");
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        if (eq + 1 == arg.size())
          die("empty value in '" + std::string(arg) +
              "' (use --key=value or drop the '=')");
        values_[std::string(arg.substr(0, eq))] =
            std::string(arg.substr(eq + 1));
      } else if (arg == "--threads" && i + 1 < argc &&
                 is_number(argv[i + 1])) {
        values_["--threads"] = argv[++i];
      } else {
        values_[std::string(arg)] = "";
      }
    }
  }

  /// True when `--flag` appears (bare or with a value).
  bool has(std::string_view flag) {
    requested_.insert(std::string(flag));
    return values_.count(std::string(flag)) != 0;
  }

  /// Value of `--key=value`, or `fallback` when the flag is absent. A bare
  /// `--key` with no value is an error for value-carrying flags.
  std::string value(std::string_view key, std::string_view fallback) {
    requested_.insert(std::string(key));
    const auto it = values_.find(std::string(key));
    if (it == values_.end()) return std::string(fallback);
    if (it->second.empty())
      die("flag '" + it->first + "' needs a value (use " + it->first +
          "=...)");
    return it->second;
  }

  /// Integer value of `--key=N`, or `fallback` when absent. Non-numeric
  /// values are an error (the old parser silently fell back).
  std::size_t size(std::string_view key, std::size_t fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    if (!is_number(v.c_str()))
      die("flag '" + std::string(key) + "' needs an integer, got '" + v +
          "'");
    return static_cast<std::size_t>(std::strtoull(v.c_str(), nullptr, 10));
  }

  /// Like size(), but zero is an error too: use for counts and intervals
  /// where 0 can only be a typo (silently accepting --metrics-every=0 or
  /// --rate=0 would run forever or divide by zero downstream).
  std::size_t positive_size(std::string_view key, std::size_t fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    const std::size_t n = size(key, fallback);
    if (n == 0)
      die("flag '" + std::string(key) + "' must be a positive integer");
    return n;
  }

  /// Real value of `--key=X`, or `fallback` when absent. The whole token
  /// must parse (strtod leftovers are an error, not a truncation).
  double real(std::string_view key, double fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
      die("flag '" + std::string(key) + "' needs a number, got '" + v + "'");
    return x;
  }

  /// Like real(), but the value must be strictly positive (rates, periods).
  double positive_real(std::string_view key, double fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    const double x = real(key, fallback);
    if (!(x > 0.0))
      die("flag '" + std::string(key) + "' must be > 0, got '" + v + "'");
    return x;
  }

  /// Pool lane count from `--threads=N` / `--threads N`. Default 1 — every
  /// bench stays serial, and therefore byte-identical to its pre-parallel
  /// output, unless asked; 0 also means serial.
  std::size_t threads() {
    const std::size_t n = size("--threads", 1);
    return n == 0 ? 1 : n;
  }

  /// Call after the last accessor: any parsed flag nothing asked about is
  /// an unknown flag and aborts.
  void done() {
    for (const auto& [key, val] : values_) {
      (void)val;
      if (requested_.count(key) == 0) die("unknown flag '" + key + "'");
    }
  }

 private:
  [[noreturn]] void die(const std::string& msg) const {
    std::fprintf(stderr, "%s: error: %s\n", program_.c_str(), msg.c_str());
    std::exit(2);
  }

  static bool is_number(const char* s) {
    if (*s == '\0') return false;
    for (; *s != '\0'; ++s)
      if (*s < '0' || *s > '9') return false;
    return true;
  }

  std::string program_;
  std::map<std::string, std::string> values_;
  std::set<std::string> requested_;
};

/// Consume --kernel-backend=<auto|scalar|avx2|avx512|neon> and force the
/// XOR+popcount kernel backend (hdc/kernels.h) before any hypervector work
/// runs. GENERIC_KERNEL_BACKEND sets the same thing from the environment;
/// the flag wins because it resolves first. Unknown or uncompiled backends
/// exit(2) with the list of choices this binary actually has.
inline void apply_kernel_backend(Flags& flags) {
  const std::string name = flags.value("--kernel-backend", "auto");
  try {
    hdc::kernels::set_backend_from_string(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--kernel-backend: %s\n", e.what());
    std::exit(2);
  }
}

/// Write `content` to `path` and say so on stdout; no-op when `path` is
/// empty (the output was not asked for). Throws on any I/O failure.
inline void write_output(const std::string& path, const char* what,
                         const std::string& content) {
  if (path.empty()) return;
  obs::write_file(path, content);
  std::printf("%s written to %s\n", what, path.c_str());
}

/// The request-trace outputs of the serving tools: --rtrace=PATH
/// (generic.rtrace.v1), --rtrace-chrome=PATH (its Chrome/Perfetto view)
/// and --flight-dump=PATH (generic.flight.v1). Construction consumes the
/// three flags and arms the rtrace sinks they need; write() writes every
/// requested document once the run is over.
class RtraceOutputs {
 public:
  explicit RtraceOutputs(Flags& flags)
      : rtrace_(flags.value("--rtrace", "")),
        chrome_(flags.value("--rtrace-chrome", "")),
        flight_(flags.value("--flight-dump", "")) {
    obs::rtrace::set_trace(!rtrace_.empty() || !chrome_.empty());
    obs::rtrace::set_flight(!flight_.empty());
  }

  void write() const {
    namespace rt = obs::rtrace;
    // Render only what was asked for: a full trace runs to megabytes.
    if (!rtrace_.empty()) write_output(rtrace_, "rtrace", rt::rtrace_to_json());
    if (!chrome_.empty())
      write_output(chrome_, "rtrace chrome trace", rt::rtrace_to_chrome_json());
    if (!flight_.empty())
      write_output(flight_, "flight recorder", rt::flight_to_json());
  }

 private:
  std::string rtrace_;
  std::string chrome_;
  std::string flight_;
};

/// The serving tools' cross-check that the futures the callers hold tell
/// the same story as the engine's own tally: every future is resolved and
/// the per-outcome counts equal `outcomes` (the report's). Prints the
/// error and returns false otherwise; the tools then exit 1.
inline bool futures_match_report(
    const std::vector<serve::ResponseFuture>& futures,
    const std::array<std::uint64_t, serve::kNumOutcomes>& outcomes) {
  std::array<std::uint64_t, serve::kNumOutcomes> seen{};
  for (const auto& f : futures) {
    const auto r = f.try_get();
    if (!r.has_value()) {
      std::fprintf(stderr, "error: unresolved future after finish()\n");
      return false;
    }
    ++seen[static_cast<std::size_t>(r->outcome)];
  }
  if (seen != outcomes) {
    std::fprintf(stderr, "error: future outcomes disagree with report\n");
    return false;
  }
  return true;
}

/// Run a tool's main body; an exception escaping it (an unwritable report
/// path, say) prints "error: <what>" on stderr and exits 1.
inline int run_tool(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

inline void print_rule(std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace generic::bench
