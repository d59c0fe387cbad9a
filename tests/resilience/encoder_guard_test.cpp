// EncoderGuard: CRC detection of corrupted encoder rows, masked encoding
// around them, and the seed-rematerialization scrub (bit-identical repair,
// the runtime enforcement of the PR 7 remat contract).
#include "resilience/encoder_guard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "encoding/encoders.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"
#include "resilience/fault_model.h"

namespace generic::resilience {
namespace {

constexpr std::size_t kDims = 512;
constexpr std::size_t kSamples = 40;
constexpr std::size_t kFeatures = 24;

enc::EncoderConfig base_cfg() {
  enc::EncoderConfig cfg;
  cfg.dims = kDims;
  return cfg;
}

std::vector<std::vector<float>> make_samples() {
  Rng rng(0x5A17E);
  std::vector<std::vector<float>> xs(kSamples,
                                     std::vector<float>(kFeatures));
  for (auto& x : xs)
    for (auto& v : x) v = static_cast<float>(rng.uniform());
  return xs;
}

/// GenericEncoder is pinned in place (copies and moves are deleted), so
/// the helper hands back an owning pointer.
std::unique_ptr<enc::GenericEncoder> make_encoder(bool remat = false) {
  auto cfg = base_cfg();
  cfg.remat = remat;
  auto encoder = std::make_unique<enc::GenericEncoder>(cfg);
  encoder->fit_range(0.0f, 1.0f);
  return encoder;
}

void corrupt_rows(enc::GenericEncoder& encoder,
                  const std::vector<std::size_t>& rows, bool hit_id) {
  Rng rng(0xBAD);
  inject_encoder_rows(encoder.mutable_level_memory(), rows,
                      FaultKind::kTransient, 0.3, rng);
  if (hit_id)
    inject_id_seed(encoder.mutable_id_memory(), FaultKind::kTransient, 0.3,
                   rng);
}

TEST(EncoderGuard, CleanEncoderScansClean) {
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const auto guard = EncoderGuard::commission(encoder);
  const auto scan = guard.scan(encoder);
  EXPECT_TRUE(scan.all_ok());
  EXPECT_EQ(scan.num_faulty(), 0u);
  EXPECT_EQ(guard.count_faulty(encoder), 0u);
  EXPECT_EQ(scan.level_ok.size(), encoder.level_memory().num_levels());
}

TEST(EncoderGuard, ScanFlagsExactlyTheCorruptedRows) {
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const auto guard = EncoderGuard::commission(encoder);
  const std::vector<std::size_t> bad = {3, 7, 40};
  corrupt_rows(encoder, bad, /*hit_id=*/true);
  const auto scan = guard.scan(encoder);
  for (std::size_t l = 0; l < scan.level_ok.size(); ++l) {
    const bool expect_bad =
        std::find(bad.begin(), bad.end(), l) != bad.end();
    EXPECT_EQ(scan.level_ok[l], !expect_bad) << "row " << l;
  }
  EXPECT_FALSE(scan.id_ok);
  EXPECT_EQ(scan.num_faulty(), bad.size() + 1);
}

TEST(EncoderGuard, ScrubRestoresEncodingsBitIdentical) {
  // The ISSUE 9 scrub-equivalence claim end to end: corruption changes the
  // encodings, scrub() brings back the exact clean bytes.
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const auto xs = make_samples();
  std::vector<hdc::IntHV> before;
  for (const auto& x : xs) before.push_back(encoder.encode(x));
  const auto guard = EncoderGuard::commission(encoder);

  corrupt_rows(encoder, {1, 5, 9, 22}, /*hit_id=*/true);
  std::vector<hdc::IntHV> corrupt;
  for (const auto& x : xs) corrupt.push_back(encoder.encode(x));
  EXPECT_NE(before, corrupt);

  const std::size_t repaired = guard.scrub(encoder);
  EXPECT_EQ(repaired, 5u);
  EXPECT_EQ(guard.count_faulty(encoder), 0u);
  std::vector<hdc::IntHV> after;
  for (const auto& x : xs) after.push_back(encoder.encode(x));
  EXPECT_EQ(before, after);
}

TEST(EncoderGuard, ScrubIsIdempotentOnCleanEncoder) {
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const auto guard = EncoderGuard::commission(encoder);
  EXPECT_EQ(guard.scrub(encoder), 0u);
}

TEST(EncoderGuard, MaskedEncodeIgnoresCorruptRowContents) {
  // encode_masked never reads a row flagged bad, so its output through a
  // corrupted encoder equals its output through the clean one under the
  // same mask — the bit-exact statement of "masking skips the damage".
  const auto clean_p = make_encoder();
  auto& clean_encoder = *clean_p;
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const auto guard = EncoderGuard::commission(encoder);
  corrupt_rows(encoder, {2, 11, 30}, /*hit_id=*/false);
  const auto scan = guard.scan(encoder);
  ASSERT_EQ(scan.num_faulty(), 3u);

  test::BackendGuard backend;
  for (hdc::kernels::Backend b : test::available_backends()) {
    hdc::kernels::set_backend(b);
    for (const auto& x : make_samples())
      EXPECT_EQ(encoder.encode_masked(x, scan.level_ok, scan.id_ok),
                clean_encoder.encode_masked(x, scan.level_ok, scan.id_ok))
          << hdc::kernels::to_string(b);
  }
}

TEST(EncoderGuard, MaskedEncodeWithAllRowsOkEqualsPlainEncode) {
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const std::vector<bool> all_ok(encoder.level_memory().num_levels(), true);
  test::BackendGuard backend;
  for (hdc::kernels::Backend b : test::available_backends()) {
    hdc::kernels::set_backend(b);
    for (const auto& x : make_samples())
      EXPECT_EQ(encoder.encode_masked(x, all_ok, true), encoder.encode(x))
          << hdc::kernels::to_string(b);
  }
}

TEST(EncoderGuard, MaskedEncodeWithoutIdEqualsNoIdEncoder) {
  // id_ok == false drops the id binding entirely, which must reproduce the
  // use_ids = false encoding bit for bit.
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  auto cfg = base_cfg();
  cfg.use_ids = false;
  enc::GenericEncoder no_ids(cfg);
  no_ids.fit_range(0.0f, 1.0f);
  const std::vector<bool> all_ok(encoder.level_memory().num_levels(), true);
  test::BackendGuard backend;
  for (hdc::kernels::Backend b : test::available_backends()) {
    hdc::kernels::set_backend(b);
    for (const auto& x : make_samples())
      EXPECT_EQ(encoder.encode_masked(x, all_ok, false), no_ids.encode(x))
          << hdc::kernels::to_string(b);
  }
}

TEST(EncoderGuard, SeedlessGuardRefusesScrubButStillScans) {
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const auto guard = EncoderGuard::commission(encoder,
                                              /*seed_available=*/false);
  corrupt_rows(encoder, {4}, /*hit_id=*/false);
  EXPECT_EQ(guard.count_faulty(encoder), 1u);
  EXPECT_THROW(guard.scrub(encoder), std::logic_error);
}

TEST(EncoderGuard, RematLevelRowsAreImmuneButIdSeedIsNot) {
  // A kRematerialized level memory stores no rows: nothing to corrupt,
  // scans always clean. The id seed row is stored in both modes and stays
  // both corruptible and scrubbable.
  const auto encoder_p = make_encoder(/*remat=*/true);
  auto& encoder = *encoder_p;
  const auto guard = EncoderGuard::commission(encoder);
  EXPECT_EQ(guard.count_faulty(encoder), 0u);

  Rng rng(0xBAD5EED);
  inject_id_seed(encoder.mutable_id_memory(), FaultKind::kStuckAt1, 0.4,
                 rng);
  const auto scan = guard.scan(encoder);
  EXPECT_FALSE(scan.id_ok);
  EXPECT_EQ(scan.num_faulty(), 1u);
  for (const auto ok : scan.level_ok) EXPECT_TRUE(ok);

  EXPECT_EQ(guard.scrub(encoder), 1u);
  EXPECT_EQ(guard.count_faulty(encoder), 0u);
}

TEST(EncoderGuard, GeometryMismatchThrows) {
  const auto encoder_p = make_encoder();
  auto& encoder = *encoder_p;
  const auto guard = EncoderGuard::commission(encoder);
  auto cfg = base_cfg();
  cfg.dims = kDims * 2;
  enc::GenericEncoder other(cfg);
  other.fit_range(0.0f, 1.0f);
  EXPECT_THROW(guard.scan(other), std::invalid_argument);
}

TEST(EncoderGuard, RepairPolicyNamesRoundTrip) {
  for (const auto p : {RepairPolicy::kDetect, RepairPolicy::kMask,
                       RepairPolicy::kScrub})
    EXPECT_EQ(repair_policy_from_name(repair_policy_name(p)), p);
  EXPECT_THROW(repair_policy_from_name("noop"), std::invalid_argument);
}

}  // namespace
}  // namespace generic::resilience
