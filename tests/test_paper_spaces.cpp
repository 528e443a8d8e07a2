// Property sweeps over the four paper parameter spaces (Table 1): encoding
// round-trips, LHS-decoded configurations validate, and the shared-name
// parameters align across source/target spaces — the structural property
// the transfer GP's unit-cube alignment relies on.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "flow/benchmark.hpp"
#include "hls/systolic.hpp"
#include "sample/sampling.hpp"

namespace ppat::flow {
namespace {

struct SpaceCase {
  const char* name;
  ParameterSpace (*make)();
  std::size_t expected_params;
};

// Without this gtest prints the raw bytes of the struct, function pointer and
// string address included, so the listed test names (and the CTest names
// derived from them) would change with every ASLR-randomised run.
void PrintTo(const SpaceCase& c, std::ostream* os) { *os << c.name; }

class PaperSpaces : public ::testing::TestWithParam<SpaceCase> {};

TEST_P(PaperSpaces, ParameterCountMatchesTable1) {
  const auto space = GetParam().make();
  EXPECT_EQ(space.size(), GetParam().expected_params);
}

TEST_P(PaperSpaces, LhsDecodedConfigsValidate) {
  const auto space = GetParam().make();
  common::Rng rng(7);
  for (const auto& u : sample::latin_hypercube(100, space.size(), rng)) {
    const Config c = space.decode(u);
    space.validate(c);  // must not throw
  }
}

TEST_P(PaperSpaces, EncodeDecodeStableOnRandomPoints) {
  const auto space = GetParam().make();
  common::Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    linalg::Vector u(space.size());
    for (auto& v : u) v = rng.uniform01();
    const Config c1 = space.decode(u);
    const Config c2 = space.decode(space.encode(c1));
    for (std::size_t p = 0; p < c1.size(); ++p) {
      EXPECT_NEAR(c1[p], c2[p], 1e-9)
          << GetParam().name << " parameter " << space.spec(p).name;
    }
  }
}

TEST_P(PaperSpaces, FormatValueNeverThrows) {
  const auto space = GetParam().make();
  common::Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    linalg::Vector u(space.size());
    for (auto& v : u) v = rng.uniform01();
    const Config c = space.decode(u);
    for (std::size_t p = 0; p < space.size(); ++p) {
      EXPECT_FALSE(space.format_value(p, c[p]).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, PaperSpaces,
    ::testing::Values(SpaceCase{"source1", source1_space, 12},
                      SpaceCase{"target1", target1_space, 12},
                      SpaceCase{"source2", source2_space, 9},
                      SpaceCase{"target2", target2_space, 9}),
    [](const ::testing::TestParamInfo<SpaceCase>& info) {
      return info.param.name;
    });

TEST(PaperSpacePairs, SharedParametersHaveSameTypeAndOrder) {
  // Scenario pairs tune the same named parameters (over different ranges);
  // unit-cube dimension i must mean the same knob in source and target.
  const auto pairs = {std::pair{source1_space(), target1_space()},
                      std::pair{source2_space(), target2_space()}};
  for (const auto& [src, tgt] : pairs) {
    ASSERT_EQ(src.size(), tgt.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(src.spec(i).name, tgt.spec(i).name);
      EXPECT_EQ(static_cast<int>(src.spec(i).type),
                static_cast<int>(tgt.spec(i).type));
    }
  }
}

TEST(PaperSpacePairs, RangesDifferAsInTable1) {
  const auto s1 = source1_space();
  const auto t1 = target1_space();
  // freq: 950-1050 vs 1000-1300; place_uncertainty: 50-200 vs 20-100.
  EXPECT_NE(s1.spec(s1.index_of("freq")).max_value,
            t1.spec(t1.index_of("freq")).max_value);
  EXPECT_NE(s1.spec(s1.index_of("place_uncertainty")).min_value,
            t1.spec(t1.index_of("place_uncertainty")).min_value);
  const auto s2 = source2_space();
  const auto t2 = target2_space();
  // max_AllowedDelay: 0.06-0.12 vs 0.00-0.12; max_fanout: 25-40 vs 25-39.
  EXPECT_NE(s2.spec(s2.index_of("max_AllowedDelay")).min_value,
            t2.spec(t2.index_of("max_AllowedDelay")).min_value);
  EXPECT_NE(s2.spec(s2.index_of("max_fanout")).max_value,
            t2.spec(t2.index_of("max_fanout")).max_value);
}

/// FNV-1a over the bit patterns of the configs `decode` maps 256 fixed unit
/// points to. The points reach past both faces of the cube, so clamping is
/// pinned too.
std::uint64_t decode_digest(const ParameterSpace& space) {
  common::Rng rng(2026);
  std::uint64_t h = 1469598103934665603ULL;
  for (int p = 0; p < 256; ++p) {
    linalg::Vector u(space.size());
    for (auto& v : u) v = rng.uniform(-0.1, 1.1);
    for (double value : space.decode(u)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffULL;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

// Pins decode's arithmetic on the four Table 1 spaces and on the two
// constrained HLS spaces, whose decode honours divisibility and activation.
TEST(DecodeGolden, BitPatternsOnPaperAndHlsSpaces) {
  EXPECT_EQ(decode_digest(source1_space()), 0x3E481F9E34DA420DULL);
  EXPECT_EQ(decode_digest(target1_space()), 0x916E6FCCAFC3B74FULL);
  EXPECT_EQ(decode_digest(source2_space()), 0xB7E775C39346C2AFULL);
  EXPECT_EQ(decode_digest(target2_space()), 0x165AFFA622A05638ULL);
  EXPECT_EQ(decode_digest(hls::systolic_space(hls::small_gemm())),
            0xA0137CD1AE62DB43ULL);
  EXPECT_EQ(decode_digest(hls::systolic_space(hls::large_gemm())),
            0xB4F3E16B34741A3AULL);
}

}  // namespace
}  // namespace ppat::flow
