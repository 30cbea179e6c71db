// Copyright 2026 The dpcube Authors.
//
// Crash-recovery suite for the durable state machine: torn-tail
// tolerance, snapshot rotation, and replay that restores the quota
// ledger bit-exactly — including after concurrent multi-threaded
// charge storms (1, 2, and 8 writers).

#include "service/durable_state.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/wal.h"
#include "data/synthetic.h"
#include "engine/release_io.h"
#include "marginal/marginal_table.h"
#include "service/mutation.h"
#include "service/query_service.h"
#include "service/release_store.h"

namespace dpcube {
namespace service {
namespace {

// ---------------------------------------------------------------------
// Mutation codec (the typed record API the WAL carries).

TEST(MutationCodecTest, RoundTripsEveryKind) {
  const Mutation cases[] = {
      Mutation::LoadRelease("adult", "/tmp/adult.csv"),
      Mutation::UnloadRelease("adult"),
      Mutation::QuotaCharge("adult", 1, 0, 0),
      Mutation::QuotaCharge("adult", 0, 1, 0),
      Mutation::QuotaCharge("adult", 0, 0, 1),
      Mutation::QuotaConfig(1000, 50, 60),
  };
  for (const Mutation& in : cases) {
    Mutation out;
    ASSERT_TRUE(DecodeMutation(EncodeMutation(in), &out).ok())
        << MutationKindName(in.kind);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.name, in.name);
    EXPECT_EQ(out.path, in.path);
    EXPECT_EQ(out.charged, in.charged);
    EXPECT_EQ(out.denied_lifetime, in.denied_lifetime);
    EXPECT_EQ(out.denied_rate, in.denied_rate);
    EXPECT_EQ(out.lifetime_limit, in.lifetime_limit);
    EXPECT_EQ(out.rate_limit, in.rate_limit);
    EXPECT_EQ(out.rate_window_seconds, in.rate_window_seconds);
  }
}

TEST(MutationCodecTest, RejectsHostilePayloads) {
  Mutation out;
  // Empty and unknown kinds.
  EXPECT_EQ(DecodeMutation("", &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeMutation(std::string(1, '\x00'), &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeMutation(std::string(1, '\x05'), &out).code(),
            StatusCode::kInvalidArgument);
  // Every truncation of a valid payload must be rejected, never read
  // past the end.
  const std::string good =
      EncodeMutation(Mutation::LoadRelease("name", "/some/path.csv"));
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_EQ(DecodeMutation(good.substr(0, len), &out).code(),
              StatusCode::kInvalidArgument)
        << "prefix length " << len;
  }
  // Trailing bytes after a complete record are corruption, not slack.
  EXPECT_EQ(DecodeMutation(good + "x", &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(MutationCodecTest, KindNames) {
  EXPECT_STREQ(MutationKindName(MutationKind::kLoadRelease), "load_release");
  EXPECT_STREQ(MutationKindName(MutationKind::kUnloadRelease),
               "unload_release");
  EXPECT_STREQ(MutationKindName(MutationKind::kQuotaCharge), "quota_charge");
  EXPECT_STREQ(MutationKindName(MutationKind::kQuotaConfig), "quota_config");
  EXPECT_STREQ(MutationKindName(static_cast<MutationKind>(0)), "unknown");
}

// ---------------------------------------------------------------------
// DurableState crash-recovery fixture.

struct World {
  std::shared_ptr<ReleaseStore> store;
  std::shared_ptr<MarginalCache> cache;
  std::shared_ptr<QueryService> service;

  World()
      : store(std::make_shared<ReleaseStore>()),
        cache(std::make_shared<MarginalCache>()),
        service(std::make_shared<QueryService>(store, cache)) {}
};

// Writes a small but real release CSV the durable log can re-load on
// every boot.
std::string WriteReleaseFixture(const std::string& file_name) {
  Rng rng(42);
  auto counts = data::SparseCounts::FromDataset(
      data::MakeProductBernoulli(4, 0.3, 400, &rng));
  marginal::Workload workload = marginal::AllKWayBits(4, 2);
  std::vector<marginal::MarginalTable> marginals;
  for (std::size_t i = 0; i < workload.num_marginals(); ++i) {
    marginals.push_back(marginal::ComputeMarginal(counts, workload.mask(i)));
  }
  const std::string path = ::testing::TempDir() + "/" + file_name;
  EXPECT_TRUE(engine::WriteReleaseCsv(path, marginals).ok());
  return path;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

DurableOptions Options(const std::string& dir, std::uint64_t snapshot_every,
                       std::uint64_t lifetime_quota) {
  DurableOptions options;
  options.dir = dir;
  options.snapshot_every = snapshot_every;
  options.lifetime_quota = lifetime_quota;
  options.rate_limit = 0;
  options.rate_window_seconds = 60;
  return options;
}

// The crash-stable prefix of the statusz block ("durability:" section,
// everything before the volatile "recovery:" section).
std::string DurabilityBlock(const DurableState& state) {
  const std::string text = state.FormatStatusz();
  const std::size_t cut = text.find("recovery:");
  return cut == std::string::npos ? text : text.substr(0, cut);
}

TEST(DurableStateTest, OpenRejectsBadArguments) {
  World world;
  DurableOptions options = Options(FreshDir("ds_bad"), 8, 0);
  EXPECT_FALSE(DurableState::Open(options, nullptr, world.service).ok());
  EXPECT_FALSE(DurableState::Open(options, world.store, nullptr).ok());
  options.dir.clear();
  EXPECT_FALSE(DurableState::Open(options, world.store, world.service).ok());
}

TEST(DurableStateTest, RestoresReleasesAndLedgerAcrossReopen) {
  const std::string dir = FreshDir("ds_reopen");
  const std::string csv = WriteReleaseFixture("ds_reopen.csv");
  std::string durability_before;
  {
    World world;
    auto opened =
        DurableState::Open(Options(dir, 1024, /*lifetime_quota=*/10),
                           world.store, world.service);
    ASSERT_TRUE(opened.ok());
    auto state = *opened;
    ASSERT_TRUE(state->Apply(Mutation::LoadRelease("adult", csv)).ok());
    EXPECT_TRUE(world.store->Get("adult").ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          state->Apply(Mutation::QuotaCharge("adult", 1, 0, 0)).ok());
    }
    ASSERT_TRUE(state->Apply(Mutation::QuotaCharge("adult", 0, 1, 0)).ok());
    durability_before = DurabilityBlock(*state);
  }
  // Reboot into an empty in-memory world; replay must restore it all.
  World world;
  auto reopened = DurableState::Open(Options(dir, 1024, 10), world.store,
                                     world.service);
  ASSERT_TRUE(reopened.ok());
  auto state = *reopened;
  EXPECT_TRUE(world.store->Get("adult").ok());
  EXPECT_EQ(state->quota_denied(), 1u);
  auto ledger = state->QuotaLedger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].first, "adult");
  EXPECT_EQ(ledger[0].second, 3u);
  auto paths = state->ReleasePaths();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::pair<std::string, std::string>{"adult", csv}));
  // The durable /statusz block is bit-identical across the reboot, and
  // nothing was appended by the reboot itself (same quota config). The
  // six records: the initial quota-config, the load, three charges, and
  // the denial.
  EXPECT_EQ(DurabilityBlock(*state), durability_before);
  EXPECT_EQ(state->replay_summary().records, 6u);
  EXPECT_EQ(state->last_lsn(), 6u);
}

TEST(DurableStateTest, ToleratesTornTailOnReboot) {
  const std::string dir = FreshDir("ds_torn");
  {
    World world;
    auto opened =
        DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
    ASSERT_TRUE(opened.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*opened)->Apply(Mutation::QuotaCharge("r", 1, 0, 0)).ok());
    }
  }
  // Simulate a crash mid-append: garbage bytes at the changelog tail.
  auto entries = wal::ListDir(dir);
  ASSERT_TRUE(entries.ok());
  std::string changelog;
  for (const auto& entry : *entries) {
    if (entry.rfind("changelog.", 0) == 0) changelog = dir + "/" + entry;
  }
  ASSERT_FALSE(changelog.empty());
  {
    std::ofstream out(changelog, std::ios::binary | std::ios::app);
    out.write("\xD7\x5A\x11\xADtorn", 8);  // Magic + a partial header.
    ASSERT_TRUE(out.good());
  }
  World world;
  auto reopened =
      DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->replay_summary().torn_bytes, 8u);
  EXPECT_EQ((*reopened)->replay_summary().records, 4u);
  auto ledger = (*reopened)->QuotaLedger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].second, 4u);
  // The torn bytes were truncated away: a third boot replays cleanly.
  World world3;
  auto third =
      DurableState::Open(Options(dir, 1024, 0), world3.store, world3.service);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->replay_summary().torn_bytes, 0u);
}

TEST(DurableStateTest, SnapshotRotationKeepsStateAndTruncatesLog) {
  const std::string dir = FreshDir("ds_rotate");
  const std::string csv = WriteReleaseFixture("ds_rotate.csv");
  std::string durability_before;
  {
    World world;
    auto opened = DurableState::Open(Options(dir, /*snapshot_every=*/4, 0),
                                     world.store, world.service);
    ASSERT_TRUE(opened.ok());
    auto state = *opened;
    ASSERT_TRUE(state->Apply(Mutation::LoadRelease("r", csv)).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(state->Apply(Mutation::QuotaCharge("r", 1, 0, 0)).ok());
    }
    EXPECT_GE(state->snapshot_count(), 2u);
    durability_before = DurabilityBlock(*state);
  }
  // Old changelog segments were truncated away — only segments at or
  // above the newest snapshot's base survive.
  auto entries = wal::ListDir(dir);
  ASSERT_TRUE(entries.ok());
  std::uint64_t snapshots = 0;
  for (const auto& entry : *entries) {
    if (entry.rfind("snapshot.", 0) == 0) snapshots += 1;
    EXPECT_EQ(entry.find(".tmp"), std::string::npos) << entry;
  }
  ASSERT_GE(snapshots, 1u);
  EXPECT_LE(snapshots, 2u);  // Rotation keeps at most the newest two.

  World world;
  auto reopened =
      DurableState::Open(Options(dir, 4, 0), world.store, world.service);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT((*reopened)->replay_summary().snapshot_lsn, 0u);
  EXPECT_TRUE(world.store->Get("r").ok());
  EXPECT_EQ(DurabilityBlock(**reopened), durability_before);
  auto ledger = (*reopened)->QuotaLedger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].second, 10u);
}

TEST(DurableStateTest, CorruptSnapshotFallsBackToOlderOne) {
  const std::string dir = FreshDir("ds_snapfall");
  {
    World world;
    auto opened =
        DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
    ASSERT_TRUE(opened.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*opened)->Apply(Mutation::QuotaCharge("r", 1, 0, 0)).ok());
    }
    ASSERT_TRUE((*opened)->SnapshotNow().ok());
    ASSERT_TRUE((*opened)->Apply(Mutation::QuotaCharge("r", 1, 0, 0)).ok());
    ASSERT_TRUE((*opened)->SnapshotNow().ok());
  }
  // Corrupt the NEWEST snapshot. Boot must fall back to the older one
  // rather than refuse to start: the state it restores is the older
  // snapshot's coverage (LSN 3), because rotation already truncated the
  // changelog records the newer snapshot had absorbed.
  auto entries = wal::ListDir(dir);
  ASSERT_TRUE(entries.ok());
  std::string newest;
  for (const auto& entry : *entries) {
    if (entry.rfind("snapshot.", 0) == 0 && entry > newest) newest = entry;
  }
  ASSERT_FALSE(newest.empty());
  {
    std::fstream f(dir + "/" + newest,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXX", 4);  // Clobber the magic: CRC/format check fails.
    ASSERT_TRUE(f.good());
  }
  World world;
  auto reopened =
      DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->replay_summary().snapshot_lsn, 3u);
  auto ledger = (*reopened)->QuotaLedger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].second, 3u);
}

TEST(DurableStateTest, LedgerSurvivesUnload) {
  const std::string dir = FreshDir("ds_unload");
  const std::string csv = WriteReleaseFixture("ds_unload.csv");
  {
    World world;
    auto opened =
        DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
    ASSERT_TRUE(opened.ok());
    auto state = *opened;
    ASSERT_TRUE(state->Apply(Mutation::LoadRelease("r", csv)).ok());
    ASSERT_TRUE(state->Apply(Mutation::QuotaCharge("r", 1, 0, 0)).ok());
    ASSERT_TRUE(state->Apply(Mutation::UnloadRelease("r")).ok());
    EXPECT_FALSE(world.store->Get("r").ok());
    // The privacy ledger outlives the release: reloading "r" must not
    // reset its lifetime charge count.
    auto ledger = state->QuotaLedger();
    ASSERT_EQ(ledger.size(), 1u);
    EXPECT_EQ(ledger[0].second, 1u);
  }
  World world;
  auto reopened =
      DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(world.store->Get("r").ok());
  EXPECT_TRUE((*reopened)->ReleasePaths().empty());
  auto ledger = (*reopened)->QuotaLedger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].second, 1u);
}

TEST(DurableStateTest, QuotaConfigChangeIsLoggedOnce) {
  const std::string dir = FreshDir("ds_config");
  {
    World world;
    auto opened = DurableState::Open(Options(dir, 1024, /*lifetime_quota=*/5),
                                     world.store, world.service);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->last_lsn(), 1u);  // The config record.
  }
  {
    // Same flags: the reboot appends nothing — last_lsn is byte-stable,
    // which is what makes the kill -9 statusz diff in CI meaningful.
    World world;
    auto opened = DurableState::Open(Options(dir, 1024, 5), world.store,
                                     world.service);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->last_lsn(), 1u);
  }
  // Changed flags: exactly one new config record.
  World world;
  auto opened = DurableState::Open(Options(dir, 1024, 7), world.store,
                                   world.service);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->last_lsn(), 2u);
  EXPECT_NE(DurabilityBlock(**opened).find("lifetime_quota: 7"),
            std::string::npos);
}

TEST(DurableStateTest, MissingCsvIsSkippedNotFatal) {
  const std::string dir = FreshDir("ds_gone");
  const std::string csv = WriteReleaseFixture("ds_gone.csv");
  {
    World world;
    auto opened =
        DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Apply(Mutation::LoadRelease("r", csv)).ok());
    ASSERT_TRUE((*opened)->Apply(Mutation::QuotaCharge("r", 1, 0, 0)).ok());
  }
  std::remove(csv.c_str());
  World world;
  auto reopened =
      DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
  ASSERT_TRUE(reopened.ok());  // Boot survives; the release does not.
  EXPECT_EQ((*reopened)->replay_summary().skipped_releases, 1u);
  EXPECT_FALSE(world.store->Get("r").ok());
  // The ledger still remembers the charge: privacy accounting never
  // loosens because a file went missing.
  auto ledger = (*reopened)->QuotaLedger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].second, 1u);
}

TEST(DurableStateTest, MalformedCsvIsSkippedNotFatal) {
  const std::string dir = FreshDir("ds_garbled");
  const std::string csv = WriteReleaseFixture("ds_garbled.csv");
  {
    World world;
    auto opened =
        DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Apply(Mutation::LoadRelease("r", csv)).ok());
  }
  // A signed mask, which must not wrap to a 2^61-cell marginal: boot
  // drops the release instead of throwing.
  {
    std::ofstream garble(csv, std::ios::trunc);
    garble << "# dpcube-release d=4\nmask,cell,value\n-8,1,1.5\n";
  }
  World world;
  auto reopened =
      DurableState::Open(Options(dir, 1024, 0), world.store, world.service);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->replay_summary().skipped_releases, 1u);
  EXPECT_FALSE(world.store->Get("r").ok());
  std::remove(csv.c_str());
}

// Replay determinism: N threads hammer concurrent charges, then a
// reboot must reconstruct the exact same ledger and durable statusz
// block regardless of how the appends interleaved.
void RunConcurrentChargeStorm(int threads) {
  const std::string dir =
      FreshDir("ds_storm_" + std::to_string(threads));
  std::string durability_before;
  std::uint64_t last_lsn_before = 0;
  {
    World world;
    auto opened = DurableState::Open(Options(dir, /*snapshot_every=*/16, 0),
                                     world.store, world.service);
    ASSERT_TRUE(opened.ok());
    auto state = *opened;
    constexpr int kPerThread = 25;
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&state, &failures, t] {
        const std::string release = "r" + std::to_string(t % 2);
        for (int i = 0; i < kPerThread; ++i) {
          if (!state->Apply(Mutation::QuotaCharge(release, 1, 0, 0)).ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    ASSERT_EQ(failures.load(), 0);
    durability_before = DurabilityBlock(*state);
    last_lsn_before = state->last_lsn();
    ASSERT_EQ(last_lsn_before,
              static_cast<std::uint64_t>(threads) * kPerThread);
  }
  World world;
  auto reopened = DurableState::Open(Options(dir, 16, 0), world.store,
                                     world.service);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->last_lsn(), last_lsn_before);
  EXPECT_EQ(DurabilityBlock(**reopened), durability_before)
      << "replay must be bit-exact for " << threads << " writer threads";
  std::uint64_t total = 0;
  for (const auto& row : (*reopened)->QuotaLedger()) total += row.second;
  EXPECT_EQ(total, static_cast<std::uint64_t>(threads) * 25);
}

TEST(DurableStateTest, ReplayBitExactOneWriter) { RunConcurrentChargeStorm(1); }

TEST(DurableStateTest, ReplayBitExactTwoWriters) {
  RunConcurrentChargeStorm(2);
}

TEST(DurableStateTest, ReplayBitExactEightWriters) {
  RunConcurrentChargeStorm(8);
}

}  // namespace
}  // namespace service
}  // namespace dpcube
