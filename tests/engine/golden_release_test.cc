// Copyright 2026 The dpcube Authors.
//
// Golden end-to-end regression net: a seeded ReleaseWorkload run is
// snapshotted to tests/golden/*.csv and compared field-exact, so future
// performance work on the pipeline (parallel fan-out, transform blocking,
// budget solver tweaks) cannot silently change released values. The
// parallel determinism suite guarantees thread count does not affect
// these bytes; this suite pins the bytes themselves.
//
// Regenerating (after an INTENTIONAL output-changing commit, e.g. a new
// seed-derivation rule — say so in the commit message):
//   DPCUBE_REGEN_GOLDEN=1 ./engine_golden_release_test
// then commit the rewritten tests/golden/*.csv.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/schema.h"
#include "data/synthetic.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "strategy/cluster_strategy.h"
#include "strategy/fourier_strategy.h"
#include "strategy/query_strategy.h"

#ifndef DPCUBE_TEST_SOURCE_DIR
#error "build must define DPCUBE_TEST_SOURCE_DIR (see CMakeLists.txt)"
#endif

namespace dpcube {
namespace engine {
namespace {

bool RegenRequested() {
  const char* regen = std::getenv("DPCUBE_REGEN_GOLDEN");
  return regen != nullptr && regen[0] != '\0' &&
         std::string(regen) != "0";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Field-exact comparison: every line, split on commas, must match the
// golden snapshot character for character ("%.17g" round-trips doubles,
// so this is bit-exactness of the released values).
void ExpectMatchesGolden(const std::string& actual_path,
                         const std::string& golden_path) {
  const std::vector<std::string> actual = ReadLines(actual_path);
  const std::vector<std::string> golden = ReadLines(golden_path);
  ASSERT_EQ(actual.size(), golden.size())
      << "line count drifted vs " << golden_path
      << " — if intentional, regenerate with DPCUBE_REGEN_GOLDEN=1";
  for (std::size_t l = 0; l < golden.size(); ++l) {
    std::stringstream a(actual[l]), g(golden[l]);
    std::string af, gf;
    std::size_t field = 0;
    while (std::getline(g, gf, ',')) {
      ASSERT_TRUE(std::getline(a, af, ','))
          << golden_path << ":" << l + 1 << " missing field " << field;
      ASSERT_EQ(af, gf) << golden_path << ":" << l + 1 << " field " << field
                        << " — released values changed; if intentional, "
                           "regenerate with DPCUBE_REGEN_GOLDEN=1";
      ++field;
    }
    ASSERT_FALSE(std::getline(a, af, ','))
        << golden_path << ":" << l + 1 << " has extra fields";
  }
}

template <typename StrategyT>
void RunGoldenCase(const data::Dataset& dataset,
                   const marginal::Workload& workload, double epsilon,
                   std::uint64_t release_seed, const std::string& name) {
  const data::SparseCounts counts =
      data::SparseCounts::FromDataset(dataset);
  const StrategyT strat(workload);
  ReleaseOptions options;
  options.params.epsilon = epsilon;
  options.budget_mode = BudgetMode::kOptimal;
  options.enforce_consistency = true;
  Rng rng(release_seed);
  auto outcome = ReleaseWorkload(strat, counts, options, &rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // Archive with predicted variances, like the CLI release path does.
  linalg::Vector cell_variances;
  auto predicted =
      strat.PredictCellVariances(outcome.value().group_budgets,
                                 options.params);
  ASSERT_TRUE(predicted.ok());
  cell_variances = std::move(predicted).value();

  const std::string golden_path =
      std::string(DPCUBE_TEST_SOURCE_DIR) + "/golden/" + name + ".csv";
  if (RegenRequested()) {
    ASSERT_TRUE(WriteReleaseCsv(golden_path, outcome.value().marginals,
                                cell_variances)
                    .ok());
    GTEST_LOG_(INFO) << "regenerated " << golden_path;
    return;
  }
  const std::string actual_path =
      ::testing::TempDir() + "/golden_actual_" + name + ".csv";
  ASSERT_TRUE(WriteReleaseCsv(actual_path, outcome.value().marginals,
                              cell_variances)
                  .ok());
  ExpectMatchesGolden(actual_path, golden_path);
}

TEST(GoldenReleaseTest, NltcsQ2FourierOptimal) {
  Rng data_rng(11);
  const data::Dataset dataset = data::MakeNltcsLike(2000, &data_rng);
  RunGoldenCase<strategy::FourierStrategy>(
      dataset, marginal::WorkloadQk(dataset.schema(), 2), 0.5,
      /*release_seed=*/7, "nltcs_q2_fplus_seed7");
}

TEST(GoldenReleaseTest, MixedQ1QueryConsistent) {
  Rng data_rng(12);
  const data::Schema schema({{"a", 4}, {"b", 2}, {"c", 8}});
  const data::Dataset dataset = data::MakeUniform(schema, 1500, &data_rng);
  RunGoldenCase<strategy::QueryStrategy>(
      dataset, marginal::WorkloadQk(schema, 2), 1.0,
      /*release_seed=*/9, "mixed_q2_qplus_seed9");
}

// Pins the C strategy's released bytes, clustering search included: the
// incremental merge scoring must keep choosing exactly the centroids the
// exhaustive search chose, or this snapshot drifts.
TEST(GoldenReleaseTest, MixedQ2ClusterOptimal) {
  Rng data_rng(13);
  const data::Schema schema({{"a", 4}, {"b", 2}, {"c", 8}});
  const data::Dataset dataset = data::MakeUniform(schema, 1800, &data_rng);
  RunGoldenCase<strategy::ClusterStrategy>(
      dataset, marginal::WorkloadQk(schema, 2), 0.7,
      /*release_seed=*/13, "mixed_q2_cplus_seed13");
}

}  // namespace
}  // namespace engine
}  // namespace dpcube
