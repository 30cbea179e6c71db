// Copyright 2026 The dpcube Authors.

#include "engine/release_io.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "engine/release_engine.h"
#include "strategy/query_strategy.h"

namespace dpcube {
namespace engine {
namespace {

std::vector<marginal::MarginalTable> SampleRelease(
    const marginal::Workload& w, Rng* rng) {
  std::vector<marginal::MarginalTable> out;
  for (std::size_t i = 0; i < w.num_marginals(); ++i) {
    marginal::MarginalTable t(w.mask(i), w.d());
    for (std::size_t g = 0; g < t.num_cells(); ++g) {
      t.value(g) = rng->NextGaussian(100.0, 30.0);
    }
    out.push_back(std::move(t));
  }
  return out;
}

TEST(ReleaseIoTest, WriteReadRoundTrip) {
  Rng rng(1);
  const marginal::Workload w(6, {bits::Mask{0b11}, bits::Mask{0b110000},
                                 bits::Mask{0b001100}});
  const auto release = SampleRelease(w, &rng);
  const std::string path = ::testing::TempDir() + "/dpcube_release.csv";
  ASSERT_TRUE(WriteReleaseCsv(path, release).ok());
  auto loaded = ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().workload.d(), 6);
  ASSERT_EQ(loaded.value().marginals.size(), release.size());
  for (std::size_t i = 0; i < release.size(); ++i) {
    EXPECT_EQ(loaded.value().marginals[i].alpha(), release[i].alpha());
    for (std::size_t g = 0; g < release[i].num_cells(); ++g) {
      EXPECT_DOUBLE_EQ(loaded.value().marginals[i].value(g),
                       release[i].value(g));
    }
  }
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, ValuesSurviveExactly) {
  // %.17g round-trips doubles bit-exactly.
  marginal::MarginalTable t(bits::Mask{0b1}, 3);
  t.value(0) = 1.0 / 3.0;
  t.value(1) = -2.7182818284590452;
  const std::string path = ::testing::TempDir() + "/dpcube_exact.csv";
  ASSERT_TRUE(WriteReleaseCsv(path, {t}).ok());
  auto loaded = ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().marginals[0].value(0), 1.0 / 3.0);
  EXPECT_EQ(loaded.value().marginals[0].value(1), -2.7182818284590452);
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, EndToEndWithEngine) {
  Rng rng(2);
  const data::Dataset ds = data::MakeProductBernoulli(6, 0.4, 300, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  const marginal::Workload w =
      marginal::WorkloadQk(data::BinarySchema(6), 2);
  strategy::QueryStrategy strat(w);
  ReleaseOptions options;
  options.params.epsilon = 1.0;
  auto outcome = ReleaseWorkload(strat, counts, options, &rng);
  ASSERT_TRUE(outcome.ok());
  const std::string path = ::testing::TempDir() + "/dpcube_e2e.csv";
  ASSERT_TRUE(WriteReleaseCsv(path, outcome.value().marginals).ok());
  auto loaded = ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().workload.num_marginals(), w.num_marginals());
  std::remove(path.c_str());
}

void WriteText(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ReleaseIoTest, ReadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/dpcube_bad_release.csv";
  WriteText(path, "not a release\n");
  EXPECT_FALSE(ReadReleaseCsv(path).ok());
  WriteText(path, "# dpcube-release d=3\nmask,cell,value\n1,99,5.0\n");
  EXPECT_FALSE(ReadReleaseCsv(path).ok());  // Cell out of range.
  WriteText(path, "# dpcube-release d=3\nmask,cell,value\n1,x,5.0\n");
  EXPECT_FALSE(ReadReleaseCsv(path).ok());  // Non-numeric.
  // With lines enough for its marginal, the cell index itself is checked.
  WriteText(path, "# dpcube-release d=3\nmask,cell,value\n1,0,5.0\n1,2,5.0\n");
  auto bad_cell = ReadReleaseCsv(path);
  ASSERT_FALSE(bad_cell.ok());
  EXPECT_EQ(bad_cell.status().code(), StatusCode::kOutOfRange);

  // Signs, trailing bytes, masks outside the domain and marginals larger
  // than the file could hold: each is refused with InvalidArgument naming
  // the line, never read as a huge allocation.
  const std::string kHead = "# dpcube-release d=3\nmask,cell,value\n";
  const std::pair<std::string, std::string> kRejected[] = {
      {kHead + "1,0,1.5\n-8,1,1.5\n", "line 4"},      // Sign: wraps to 2^61.
      {kHead + "+1,0,1.5\n", "line 3"},                // Sign on the mask.
      {kHead + "1,-0,1.5\n", "line 3"},                // Sign on the cell.
      {kHead + "1,0,+1.5\n", "line 3"},                // '+' on the value.
      {kHead + "1,0,1.5abc\n", "line 3"},              // Trailing bytes.
      {kHead + "1 ,0,1.5\n", "line 3"},                // Trailing blank.
      {kHead + "1,0,1.5,7\n", "line 3"},               // Extra field.
      {kHead + "8,0,1.5\n", "line 3"},                 // Mask above d=3.
      {"# dpcube-release d=40\nmask,cell,value\n"     // 2^36 cells.
       "68719476735,0,1.5\n",
       "line 3"},
      {kHead + "7,0,1\n7,1,1\n7,2,1\n", "line 3"},  // 8 cells, 3 lines.
      // Each marginal fits the lines after it, but 8 + 4 cells do not fit
      // 8 lines: alternating masks must not allocate quadratically.
      {kHead + "7,0,1\n6,0,1\n6,1,1\n6,2,1\n6,3,1\n6,0,1\n6,1,1\n6,2,1\n",
       "line 4"},
      {"# dpcube-release d=-3\nmask,cell,value\n", "line 1"},
      {"# dpcube-release d=64\nmask,cell,value\n", "line 1"},
      {"# dpcube-release d=3x\nmask,cell,value\n", "line 1"},
      {"# dpcube-release d=3\n# dpcube-cell-variances 1.5x\n"
       "mask,cell,value\n0,0,1\n",
       "line 2"},
  };
  for (const auto& [text, where] : kRejected) {
    WriteText(path, text);
    auto loaded = ReadReleaseCsv(path);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(loaded.status().ToString().find(where), std::string::npos)
        << loaded.status().ToString();
  }

  // The size bound comes from the file itself: a marginal that the rest
  // of the file can hold loads, with or without a final newline.
  WriteText(path, kHead + "1,0,1\n1,1,2");
  auto exact = ReadReleaseCsv(path);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.value().marginals[0].value(1), 2.0);
  std::remove(path.c_str());
}

// Values the %.17g writer had to get right: signed zeros, subnormals, the
// extremes, integers above 2^53, and arbitrary bit patterns.
std::vector<double> AwkwardDoubles(Rng* rng) {
  std::vector<double> out = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             9007199254740993.0,
                             18014398509481988.0,
                             1e300,
                             123456789.0,
                             0.1};
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t raw = rng->NextUint64();
    switch (i % 4) {
      case 0:  // Subnormal: zero exponent field.
        raw &= ~(std::uint64_t{0x7ff} << 52);
        break;
      case 1: {  // Integer in [2^53, 2^63).
        const double v = std::ldexp(1.0, 53 + static_cast<int>(raw % 10)) +
                         static_cast<double>(raw >> 40);
        std::memcpy(&raw, &v, sizeof(v));
        break;
      }
      case 2: {  // Noisy-count magnitudes.
        const double v = rng->NextGaussian(0.0, 1e4);
        std::memcpy(&raw, &v, sizeof(v));
        break;
      }
      default:  // Any finite bit pattern.
        if (((raw >> 52) & 0x7ff) == 0x7ff) raw ^= std::uint64_t{1} << 62;
        break;
    }
    double v;
    std::memcpy(&v, &raw, sizeof(v));
    out.push_back(v);
  }
  return out;
}

TEST(ReleaseIoTest, WriterBytesEqualPrintfRendering) {
  Rng rng(7);
  const std::vector<double> values = AwkwardDoubles(&rng);
  // One 11-bit marginal plus a 1-cell one, over d = 40 (masks above 32
  // bits print as full 64-bit integers).
  const bits::Mask wide = bits::Mask{0x7ff} << 28;
  marginal::MarginalTable big(wide, 40);
  marginal::MarginalTable apex(0, 40);
  for (std::size_t g = 0; g < big.num_cells(); ++g) {
    big.value(g) = values[g % values.size()];
  }
  apex.value(0) = -0.0;
  const linalg::Vector variances = {values[3], values[12]};
  const std::string path = ::testing::TempDir() + "/dpcube_printf.csv";
  ASSERT_TRUE(WriteReleaseCsv(path, {big, apex}, variances).ok());

  std::string want = "# dpcube-release d=40\n# dpcube-cell-variances";
  char field[64];
  for (const double v : variances) {
    std::snprintf(field, sizeof(field), " %.17g", v);
    want += field;
  }
  want += "\nmask,cell,value\n";
  for (const marginal::MarginalTable* m : {&big, &apex}) {
    for (std::size_t g = 0; g < m->num_cells(); ++g) {
      std::snprintf(field, sizeof(field), "%" PRIu64 ",%zu,%.17g\n",
                    static_cast<std::uint64_t>(m->alpha()), g, m->value(g));
      want += field;
    }
  }
  EXPECT_EQ(ReadText(path), want);

  // And the reader returns every value bit for bit.
  auto loaded = ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().marginals.size(), 2u);
  for (std::size_t g = 0; g < big.num_cells(); ++g) {
    const double got = loaded.value().marginals[0].value(g);
    ASSERT_EQ(std::memcmp(&got, &big.values()[g], sizeof(double)), 0)
        << "cell " << g << ": " << big.value(g);
  }
  EXPECT_TRUE(std::signbit(loaded.value().marginals[1].value(0)));
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, ReadRejectsMissingFile) {
  EXPECT_FALSE(ReadReleaseCsv("/nonexistent/release.csv").ok());
}

TEST(ReleaseIoTest, WriteRejectsMixedDimensionality) {
  marginal::MarginalTable a(bits::Mask{0b1}, 3);
  marginal::MarginalTable b(bits::Mask{0b1}, 4);
  const std::string path = ::testing::TempDir() + "/dpcube_mixed.csv";
  EXPECT_FALSE(WriteReleaseCsv(path, {a, b}).ok());
}

}  // namespace
}  // namespace engine
}  // namespace dpcube
