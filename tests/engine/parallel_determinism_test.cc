// Copyright 2026 The dpcube Authors.
//
// The parallel determinism suite: a full private release — sharded
// contingency-table build, per-cuboid measurement fan-out, parallel
// WHT/consistency recovery, and the archived CSV — must be bit-identical
// for a fixed seed whether the shared pool runs 1, 2, or 8 threads. This
// is the contract that makes the parallel execution model safe to
// optimise: any scheduling-dependent reduction order or thread-dependent
// RNG consumption shows up here as a bitwise mismatch.

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/contingency_table.h"
#include "data/schema.h"
#include "data/synthetic.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "strategy/cluster_strategy.h"
#include "strategy/fourier_strategy.h"
#include "strategy/identity_strategy.h"
#include "strategy/query_strategy.h"

namespace dpcube {
namespace engine {
namespace {

// Every pool size a release must be bit-identical across.
struct PoolConfig {
  int parallelism;
  const char* tag;
};
constexpr PoolConfig kPoolConfigs[] = {
    {1, "p1"},
    {2, "p2"},
    {8, "p8"},
};
constexpr std::uint64_t kSeed = 20260729;

void UsePool(const PoolConfig& config) {
  ThreadPool::ResetSharedPoolForTests(config.parallelism);
}

struct ReleaseArtifacts {
  std::vector<data::SparseCounts::Entry> counts;
  std::vector<marginal::MarginalTable> marginals;
  linalg::Vector group_budgets;
  std::string csv_bytes;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One full pipeline run under the given pool configuration: dataset ->
// sharded SparseCounts -> strategy construction (parallel since PR 4) ->
// budgets -> measurement -> recovery -> archived CSV.
template <typename StrategyT>
ReleaseArtifacts RunAt(const PoolConfig& config, const data::Dataset& dataset,
                       const marginal::Workload& workload,
                       const std::string& tag) {
  UsePool(config);
  ReleaseArtifacts a;
  const data::SparseCounts counts =
      data::SparseCounts::FromDataset(dataset);
  a.counts = counts.entries();

  const StrategyT strat(workload);
  ReleaseOptions options;
  options.params.epsilon = 0.5;
  options.budget_mode = BudgetMode::kOptimal;
  options.enforce_consistency = true;
  Rng rng(kSeed);
  auto outcome = ReleaseWorkload(strat, counts, options, &rng);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return a;
  a.marginals = std::move(outcome.value().marginals);
  a.group_budgets = outcome.value().group_budgets;

  const std::string path = ::testing::TempDir() + "/determinism_" + tag +
                           "_" + config.tag + ".csv";
  EXPECT_TRUE(WriteReleaseCsv(path, a.marginals).ok());
  a.csv_bytes = ReadFileBytes(path);
  return a;
}

// Bitwise double equality — EXPECT_EQ would accept -0.0 == 0.0 and such;
// the suite demands the released bytes, not just the values, agree.
bool BitIdentical(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectArtifactsBitIdentical(const ReleaseArtifacts& base,
                                 const ReleaseArtifacts& other,
                                 const std::string& what) {
  ASSERT_EQ(base.counts.size(), other.counts.size()) << what;
  for (std::size_t i = 0; i < base.counts.size(); ++i) {
    ASSERT_EQ(base.counts[i].cell, other.counts[i].cell) << what;
    ASSERT_TRUE(BitIdentical(base.counts[i].count, other.counts[i].count))
        << what;
  }
  ASSERT_EQ(base.group_budgets.size(), other.group_budgets.size()) << what;
  for (std::size_t i = 0; i < base.group_budgets.size(); ++i) {
    ASSERT_TRUE(BitIdentical(base.group_budgets[i], other.group_budgets[i]))
        << what << " budget " << i;
  }
  ASSERT_EQ(base.marginals.size(), other.marginals.size()) << what;
  for (std::size_t m = 0; m < base.marginals.size(); ++m) {
    ASSERT_EQ(base.marginals[m].alpha(), other.marginals[m].alpha()) << what;
    ASSERT_EQ(base.marginals[m].num_cells(), other.marginals[m].num_cells())
        << what;
    for (std::size_t g = 0; g < base.marginals[m].num_cells(); ++g) {
      ASSERT_TRUE(BitIdentical(base.marginals[m].value(g),
                               other.marginals[m].value(g)))
          << what << " marginal " << m << " cell " << g;
    }
  }
  ASSERT_FALSE(base.csv_bytes.empty()) << what;
  ASSERT_EQ(base.csv_bytes, other.csv_bytes) << what;
}

template <typename StrategyT>
void CheckStrategy(const data::Dataset& dataset,
                   const marginal::Workload& workload,
                   const std::string& tag) {
  ReleaseArtifacts base;
  bool first = true;
  for (const PoolConfig& config : kPoolConfigs) {
    ReleaseArtifacts a = RunAt<StrategyT>(config, dataset, workload, tag);
    if (first) {
      base = std::move(a);
      first = false;
      continue;
    }
    ExpectArtifactsBitIdentical(base, a,
                                tag + std::string(" @") + config.tag);
  }
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ~ParallelDeterminismTest() override {
    ThreadPool::ResetSharedPoolForTests(2);  // Don't serialise later tests.
  }
};

// Schema 1: NLTCS-like (16 binary attributes, the paper's main dataset).
TEST_F(ParallelDeterminismTest, NltcsAllStrategies) {
  Rng rng(1);
  const data::Dataset dataset = data::MakeNltcsLike(3000, &rng);
  const marginal::Workload w =
      marginal::WorkloadQk(dataset.schema(), 2);
  CheckStrategy<strategy::FourierStrategy>(dataset, w, "nltcs_F");
  CheckStrategy<strategy::QueryStrategy>(dataset, w, "nltcs_Q");
  CheckStrategy<strategy::ClusterStrategy>(dataset, w, "nltcs_C");
}

// Schema 2: Adult-like (8 multi-valued attributes, d = 23).
TEST_F(ParallelDeterminismTest, AdultFourierAndIdentity) {
  Rng rng(2);
  const data::Dataset dataset = data::MakeAdultLike(4000, &rng);
  const marginal::Workload w =
      marginal::WorkloadQk(dataset.schema(), 1);
  CheckStrategy<strategy::FourierStrategy>(dataset, w, "adult_F");
  CheckStrategy<strategy::IdentityStrategy>(dataset, w, "adult_I");
}

// Schema 3: small mixed-cardinality schema exercising uneven bit widths.
TEST_F(ParallelDeterminismTest, MixedSchemaQueryAndCluster) {
  Rng rng(3);
  const data::Schema schema({{"a", 4}, {"b", 2}, {"c", 8}, {"e", 3}});
  const data::Dataset dataset = data::MakeUniform(schema, 2500, &rng);
  const marginal::Workload w = marginal::WorkloadQk(schema, 2);
  CheckStrategy<strategy::QueryStrategy>(dataset, w, "mixed_Q");
  CheckStrategy<strategy::ClusterStrategy>(dataset, w, "mixed_C");
}

// Strategy construction in isolation: the chosen centroids/covers must
// not depend on the pool size.
TEST_F(ParallelDeterminismTest, ClusterConstructionBitIdentical) {
  const data::Schema schema({{"a", 4}, {"b", 2}, {"c", 8}, {"e", 3}});
  const marginal::Workload w = marginal::WorkloadQk(schema, 2);
  UsePool(kPoolConfigs[0]);
  const strategy::ClusterStrategy base(w);
  ASSERT_FALSE(base.materialized().empty());
  for (std::size_t c = 1; c < std::size(kPoolConfigs); ++c) {
    UsePool(kPoolConfigs[c]);
    const strategy::ClusterStrategy other(w);
    ASSERT_EQ(base.materialized(), other.materialized())
        << "centroids drifted @" << kPoolConfigs[c].tag;
    ASSERT_EQ(base.cover_of(), other.cover_of())
        << "covers drifted @" << kPoolConfigs[c].tag;
  }
}

// The sharded-sort construction itself, at a size that crosses the shard
// cutoff (so multiple shards + merge rounds actually run).
TEST_F(ParallelDeterminismTest, ShardedContingencyBuildAtScale) {
  Rng rng(4);
  const data::Dataset dataset = data::MakeNltcsLike(100000, &rng);
  ThreadPool::ResetSharedPoolForTests(1);
  const data::SparseCounts sequential =
      data::SparseCounts::FromDataset(dataset);
  ThreadPool::ResetSharedPoolForTests(8);
  const data::SparseCounts sharded =
      data::SparseCounts::FromDataset(dataset);
  ASSERT_EQ(sequential.entries().size(), sharded.entries().size());
  for (std::size_t i = 0; i < sequential.entries().size(); ++i) {
    ASSERT_EQ(sequential.entries()[i].cell, sharded.entries()[i].cell);
    ASSERT_TRUE(BitIdentical(sequential.entries()[i].count,
                             sharded.entries()[i].count));
  }
  EXPECT_TRUE(BitIdentical(sequential.Total(), sharded.Total()));
}

}  // namespace
}  // namespace engine
}  // namespace dpcube
