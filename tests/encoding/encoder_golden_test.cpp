// Byte pin of every encoder: one FNV-1a hash of the IntHV bytes of a fixed
// sample set per case, for every EncoderKind in stored and rematerialized
// mode, at word-aligned (4096, 64) and ragged (1000) dims, windows 1, 3
// and 4, ids bound and not; plus GenericEncoder::encode_masked with a
// holed level mask, a dropped id binding, and an input shorter than the
// window. The document is rendered under every available kernel backend
// and must equal the same fixture each time. Any change to an encoding's
// integer sums shows up here as a byte diff.
// tests/golden.h says how to regenerate the fixture.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "encoding/encoders.h"
#include "golden.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic::enc {
namespace {

constexpr std::size_t kFeatures = 24;
constexpr std::size_t kLevels = 16;

std::vector<std::vector<float>> samples() {
  Rng rng(0xE4C0DE5ull);
  std::vector<std::vector<float>> xs(4, std::vector<float>(kFeatures));
  for (auto& x : xs)
    for (auto& v : x) v = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;
  return xs;
}

/// FNV-1a over the little-endian bytes of each encoding, in order.
std::uint64_t fnv1a(const std::vector<hdc::IntHV>& encodings) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& acc : encodings)
    for (const std::int32_t v : acc)
      for (int b = 0; b < 4; ++b) {
        h ^= (static_cast<std::uint32_t>(v) >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
  return h;
}

EncoderConfig config(std::size_t dims, std::size_t window, bool ids,
                     bool remat) {
  EncoderConfig cfg;
  cfg.dims = dims;
  cfg.levels = kLevels;
  cfg.window = window;
  cfg.use_ids = ids;
  cfg.remat = remat;
  return cfg;
}

void line(std::string& doc, const std::string& tag,
          const std::vector<hdc::IntHV>& encodings) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %016llx\n",
                static_cast<unsigned long long>(fnv1a(encodings)));
  doc += tag + buf;
}

std::string encodings_document() {
  const auto xs = samples();
  const std::vector<float> short_x(xs[0].begin(), xs[0].begin() + 2);
  std::string doc;
  for (const bool remat : {false, true})
    for (const std::size_t dims : {4096u, 1000u, 64u}) {
      const std::string where = std::string(remat ? "remat" : "stored") +
                                " dims=" + std::to_string(dims);
      for (const EncoderKind kind :
           {EncoderKind::kRp, EncoderKind::kLevelId, EncoderKind::kNgram,
            EncoderKind::kPermutation, EncoderKind::kGeneric,
            EncoderKind::kSymbolNgram})
        for (const std::size_t window : {1u, 3u, 4u})
          for (const bool ids : {true, false}) {
            const auto e =
                make_encoder(kind, config(dims, window, ids, remat));
            e->fit(xs);
            std::vector<hdc::IntHV> out;
            for (const auto& x : xs) out.push_back(e->encode(x));
            line(doc,
                 std::string(to_string(kind)) + " " + where +
                     " window=" + std::to_string(window) +
                     (ids ? " ids=on" : " ids=off"),
                 out);
          }

      GenericEncoder g(config(dims, 3, true, remat));
      g.fit(xs);
      std::vector<bool> holed(kLevels, true);
      for (std::size_t l = 1; l < kLevels; l += 3) holed[l] = false;
      const std::vector<bool> all_ok(kLevels, true);
      std::vector<hdc::IntHV> masked, no_id, short_in;
      for (const auto& x : xs) {
        masked.push_back(g.encode_masked(x, holed, true));
        no_id.push_back(g.encode_masked(x, holed, false));
      }
      short_in.push_back(g.encode_masked(short_x, all_ok, true));
      short_in.push_back(g.encode(short_x));
      line(doc, "generic-masked " + where + " holed id_ok=1", masked);
      line(doc, "generic-masked " + where + " holed id_ok=0", no_id);
      line(doc, "generic-masked " + where + " shorter-than-window", short_in);
    }
  return doc;
}

TEST(EncoderGolden, EveryEncodingMatchesFixtureOnEveryBackend) {
  test::BackendGuard guard;
  const std::string path =
      std::string(GENERIC_GOLDEN_DIR) + "/encodings.txt";
  for (const hdc::kernels::Backend b : test::available_backends()) {
    hdc::kernels::set_backend(b);
    SCOPED_TRACE(std::string(hdc::kernels::to_string(b)));
    golden::expect_golden(encodings_document(), path);
    if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
  }
}

}  // namespace
}  // namespace generic::enc
