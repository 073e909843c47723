// FleetService + Tenant + QueryCache semantics: epoch-merged queries are
// byte-identical to one-shot batch analysis, cache entries die on epoch
// bumps, the LRU stays bounded, and a garbage row never poisons a
// tenant's pipeline.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/query.h"
#include "analysis/study.h"
#include "data/log_io.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "report/study_text.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::serve {
namespace {

data::FailureLog generated(data::Machine machine) {
  const auto model = machine == data::Machine::kTsubame2 ? sim::tsubame2_model()
                                                         : sim::tsubame3_model();
  return sim::generate_log(model, 7).value();
}

/// write_log_csv data rows (header dropped) — the serve EVENT payload.
std::vector<std::string> csv_rows(const data::FailureLog& log) {
  const std::string csv = data::write_log_csv(log);
  std::vector<std::string> rows;
  std::size_t at = 0;
  while (at < csv.size()) {
    const std::size_t end = csv.find('\n', at);
    rows.push_back(csv.substr(at, end - at));
    at = end == std::string::npos ? csv.size() : end + 1;
  }
  rows.erase(rows.begin());  // header
  return rows;
}

/// What `tsufail analyze` prints for this log.
std::string batch_study_text(const data::FailureLog& log) {
  return report::render_study_text(log, analysis::run_study(log, {}).value());
}

/// The log as the tenant actually sees it: through one CSV round-trip
/// (write_log_csv keeps times exact but ttr_hours only to 4 decimals, so
/// byte-identity must be judged against the same parsed rows).
data::FailureLog round_tripped(const data::FailureLog& log) {
  return data::read_log_csv(data::write_log_csv(log)).value().log;
}

/// Tenant defaults for replay tests: strict in-order release so every
/// ingested row is released immediately (no reorder holdback), no
/// alerts/per-tenant metric registration noise.
TenantConfig replay_config() {
  TenantConfig config;
  config.stream.reorder_horizon_hours = 0.0;
  config.per_tenant_metrics = false;
  config.alerts = false;
  return config;
}

ServiceConfig replay_service_config() {
  ServiceConfig config;
  config.tenant = replay_config();
  return config;
}

TEST(FleetService, EpochMergedQueryMatchesBatchAnalyze) {
  const auto log = generated(data::Machine::kTsubame2);
  const auto rows = csv_rows(log);

  FleetService service(replay_service_config());
  ASSERT_TRUE(service.open_tenant("t2", data::tsubame2_spec()).ok());

  // Two sealed epochs: the final snapshot only exists via delta-merge.
  const std::size_t half = rows.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    ASSERT_TRUE(service.ingest_row("t2", rows[i]).ok()) << rows[i];
  ASSERT_TRUE(service.seal("t2").ok());
  for (std::size_t i = half; i < rows.size(); ++i)
    ASSERT_TRUE(service.ingest_row("t2", rows[i]).ok()) << rows[i];
  const auto epoch = service.seal("t2");
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 2u);

  const auto replayed = round_tripped(log);
  const auto study = service.query("t2", "study");
  ASSERT_TRUE(study.ok()) << study.error().to_string();
  EXPECT_EQ(study.value().epoch, 2u);
  EXPECT_FALSE(study.value().cached);
  EXPECT_EQ(study.value().text, batch_study_text(replayed));

  // Non-study keys go through analysis::run_query on the merged index.
  const data::LogIndex index(replayed);
  for (const auto& key : analysis::query_keys()) {
    const auto got = service.query("t2", key.key);
    ASSERT_TRUE(got.ok()) << key.key << ": " << got.error().to_string();
    EXPECT_EQ(got.value().text, analysis::run_query(key.key, index).value())
        << key.key;
  }

  const auto stats = service.tenant_stats("t2");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, log.size());
  EXPECT_EQ(stats.value().sealed_pending, 0u);
  EXPECT_EQ(stats.value().stream.released, log.size());
}

TEST(FleetService, StudyQueryReadsTheSealedIndex) {
  // A sealed epoch carries its index, so QUERY study builds none.
  const auto log = generated(data::Machine::kTsubame2);
  FleetService service(replay_service_config());
  ASSERT_TRUE(service.open_tenant("t2", data::tsubame2_spec()).ok());
  for (const auto& row : csv_rows(log)) ASSERT_TRUE(service.ingest_row("t2", row).ok()) << row;
  ASSERT_TRUE(service.seal("t2").ok());

  obs::reset_metrics();
  obs::set_enabled(true);
  const auto builds = [] {
    const obs::MetricsSnapshot metrics = obs::collect_metrics();
    const auto* counter = metrics.find_counter("index.builds");
    return counter == nullptr ? std::uint64_t{0} : counter->value;
  };
  const std::uint64_t before = builds();
  const auto study = service.query("t2", "study");
  const std::uint64_t after = builds();
  const data::LogIndex control(log);  // a fresh build is counted
  const std::uint64_t after_control = builds();
  obs::set_enabled(false);
  obs::reset_metrics();

  ASSERT_TRUE(study.ok()) << study.error().to_string();
  EXPECT_FALSE(study.value().cached);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(after_control - after, 1u);
}

TEST(FleetService, EpochBumpInvalidatesCachedQueries) {
  const auto log = generated(data::Machine::kTsubame3);
  const auto rows = csv_rows(log);

  FleetService service(replay_service_config());
  ASSERT_TRUE(service.open_tenant("t3", data::tsubame3_spec()).ok());

  const std::size_t half = rows.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    ASSERT_TRUE(service.ingest_row("t3", rows[i]).ok());
  ASSERT_TRUE(service.seal("t3").ok());

  // Miss, then hit at the same epoch.
  auto first = service.query("t3", "summary");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cached);
  EXPECT_EQ(first.value().epoch, 1u);
  auto second = service.query("t3", "summary");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cached);
  EXPECT_EQ(second.value().text, first.value().text);

  // Epoch bump: the old entry is unreachable (new key shape) and eagerly
  // dropped; the next query recomputes against the new snapshot.
  for (std::size_t i = half; i < rows.size(); ++i)
    ASSERT_TRUE(service.ingest_row("t3", rows[i]).ok());
  ASSERT_TRUE(service.seal("t3").ok());
  EXPECT_GE(service.cache_stats().invalidated, 1u);

  auto after = service.query("t3", "summary");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().cached);
  EXPECT_EQ(after.value().epoch, 2u);
  EXPECT_NE(after.value().text, first.value().text);  // more records now

  // And the recomputed result is itself cached again.
  auto again = service.query("t3", "summary");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().cached);
  EXPECT_EQ(again.value().text, after.value().text);
}

TEST(FleetService, SealWithNothingPendingKeepsEpoch) {
  FleetService service(replay_service_config());
  ASSERT_TRUE(service.open_tenant("idle", data::tsubame2_spec()).ok());
  const auto first = service.seal("idle");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 0u);  // nothing pending: epoch unchanged
  const auto stats = service.tenant_stats("idle");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().epoch, 0u);
}

TEST(FleetService, BadRowsAreCountedAndNeverPoisonThePipeline) {
  const auto log = generated(data::Machine::kTsubame2);
  const auto rows = csv_rows(log);

  FleetService service(replay_service_config());
  ASSERT_TRUE(service.open_tenant("t2", data::tsubame2_spec()).ok());

  const std::vector<std::string> garbage = {
      "",                                     // empty line
      "not,a,record",                         // short row
      "tsubame-9,2012-01-01 00:00:00,1,gpu,1.0,0,unknown",  // bad machine
      "tsubame-2,not-a-time,1,gpu,1.0,0,unknown",           // bad field
      "tsubame-2,2012-01-01 00:00:00,4294968188,gpu,1.0,0,unknown",  // node outside int
      "tsubame-2,2012-01-01 00:00:00,1,gpu,1.0,0|4294967297,unknown",  // slot outside int
  };
  // Interleave garbage with real traffic: every bad row errors, counts,
  // and leaves the stream untouched.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(service.ingest_row("t2", rows[i]).ok());
    if (i < garbage.size()) {
      EXPECT_FALSE(service.ingest_row("t2", garbage[i]).ok());
    }
  }
  ASSERT_TRUE(service.seal("t2").ok());

  const auto stats = service.tenant_stats("t2");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().bad_rows, garbage.size());
  EXPECT_EQ(stats.value().records, log.size());

  const auto study = service.query("t2", "study");
  ASSERT_TRUE(study.ok());
  EXPECT_EQ(study.value().text, batch_study_text(round_tripped(log)));
}

TEST(FleetService, WrongMachineRowIsABadRowNotAQuarantine) {
  FleetService service(replay_service_config());
  ASSERT_TRUE(service.open_tenant("t2", data::tsubame2_spec()).ok());
  // A well-formed tsubame-3 row offered to a tsubame-2 tenant is refused
  // at the door (value-level error), not fed into the stream.
  const auto result =
      service.ingest_row("t2", "tsubame-3,2017-09-01 00:00:00,12,gpu,2.0,1,unknown");
  EXPECT_FALSE(result.ok());
  const auto stats = service.tenant_stats("t2");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().bad_rows, 1u);
  EXPECT_EQ(stats.value().stream.offered, 0u);
}

TEST(FleetService, TenantNamesAreValidatedAndUnique) {
  FleetService service;
  ASSERT_TRUE(service.open_tenant("fleet-a", data::tsubame2_spec()).ok());
  EXPECT_FALSE(service.open_tenant("fleet-a", data::tsubame3_spec()).ok());  // dup
  EXPECT_FALSE(service.open_tenant("", data::tsubame2_spec()).ok());
  EXPECT_FALSE(service.open_tenant("has space", data::tsubame2_spec()).ok());
  EXPECT_FALSE(service.open_tenant(std::string("a\x1f") + "b", data::tsubame2_spec()).ok());
  EXPECT_EQ(service.tenant_names(), std::vector<std::string>{"fleet-a"});
}

TEST(FleetService, UnknownTenantAndUnknownKeyError) {
  FleetService service;
  EXPECT_FALSE(service.query("ghost", "summary").ok());
  EXPECT_FALSE(service.tenant_stats("ghost").ok());
  EXPECT_FALSE(service.seal("ghost").ok());
  EXPECT_FALSE(service.ingest_row("ghost", "x").ok());

  ASSERT_TRUE(service.open_tenant("t2", data::tsubame2_spec()).ok());
  const auto before = service.cache_stats().insertions;
  EXPECT_FALSE(service.query("t2", "no-such-key").ok());
  // Errors are never cached.
  EXPECT_EQ(service.cache_stats().insertions, before);
}

TEST(FleetService, KeyVocabularyIsStudyPlusAnalysisKeys) {
  const auto keys = FleetService::keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.front().key, "study");
  EXPECT_EQ(keys.size(), analysis::query_keys().size() + 1);
  for (const auto& key : keys) EXPECT_TRUE(FleetService::is_key(key.key));
  EXPECT_FALSE(FleetService::is_key("no-such-key"));
}

TEST(FleetService, AlertCountersFlowIntoTenantStats) {
  // Alerts on (the default), with the shared `tsufail watch` rule set.
  const auto log = generated(data::Machine::kTsubame2);
  ServiceConfig config = replay_service_config();
  config.tenant.alerts = true;
  FleetService service(config);
  ASSERT_TRUE(service.open_tenant("t2", data::tsubame2_spec()).ok());
  for (const auto& row : csv_rows(log)) ASSERT_TRUE(service.ingest_row("t2", row).ok());
  ASSERT_TRUE(service.seal("t2").ok());

  const auto stats = service.tenant_stats("t2");
  ASSERT_TRUE(stats.ok());
  const auto alerts = service.recent_alerts("t2");
  ASSERT_TRUE(alerts.ok());
  // Transition counters and history agree (history is bounded, so <=).
  EXPECT_LE(alerts.value().size(),
            stats.value().alerts_fired + stats.value().alerts_cleared);
  EXPECT_EQ(stats.value().alerts_fired == 0, alerts.value().empty());
}

// --- QueryCache unit ------------------------------------------------------

TEST(QueryCache, LruEvictionKeepsTheCapacityBound) {
  QueryCache cache(2);
  cache.put("t", 1, "a", "A");
  cache.put("t", 1, "b", "B");
  ASSERT_TRUE(cache.get("t", 1, "a").has_value());  // refresh: a is MRU
  cache.put("t", 1, "c", "C");                      // evicts b (LRU)
  EXPECT_FALSE(cache.get("t", 1, "b").has_value());
  EXPECT_EQ(cache.get("t", 1, "a").value_or(""), "A");
  EXPECT_EQ(cache.get("t", 1, "c").value_or(""), "C");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
}

TEST(QueryCache, EpochIsPartOfTheKeyAndInvalidateBeforeReclaims) {
  QueryCache cache(8);
  cache.put("t", 1, "summary", "old");
  cache.put("t", 2, "summary", "new");
  cache.put("u", 1, "summary", "other-tenant");
  EXPECT_EQ(cache.get("t", 1, "summary").value_or(""), "old");
  EXPECT_EQ(cache.get("t", 2, "summary").value_or(""), "new");

  EXPECT_EQ(cache.invalidate_before("t", 2), 1u);  // drops only ("t", 1)
  EXPECT_FALSE(cache.get("t", 1, "summary").has_value());
  EXPECT_EQ(cache.get("t", 2, "summary").value_or(""), "new");
  EXPECT_EQ(cache.get("u", 1, "summary").value_or(""), "other-tenant");
  EXPECT_EQ(cache.stats().invalidated, 1u);
}

TEST(QueryCache, TenantNamesCannotCollideAcrossKeyParts) {
  // The separator is forbidden in tenant names, but the cache itself
  // must still keep lookalike (tenant, key) splits distinct.
  QueryCache cache(8);
  cache.put("a", 1, "b:c", "one");
  cache.put("a:b", 1, "c", "two");  // hypothetical hostile name
  EXPECT_EQ(cache.get("a", 1, "b:c").value_or(""), "one");
  EXPECT_EQ(cache.get("a:b", 1, "c").value_or(""), "two");
}

TEST(QueryCache, CapacityZeroDisablesCaching) {
  QueryCache cache(0);
  cache.put("t", 1, "k", "v");
  EXPECT_FALSE(cache.get("t", 1, "k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// --- columnar epoch persistence --------------------------------------------

/// A fresh data_dir under the gtest temp root, removed on destruction.
struct TempDataDir {
  std::filesystem::path path;
  explicit TempDataDir(const std::string& tag)
      : path(std::filesystem::path(::testing::TempDir()) / ("tsufail_serve_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDataDir() { std::filesystem::remove_all(path); }
};

TEST(SegmentEpoch, ParsesOnlyWellFormedNames) {
  EXPECT_EQ(segment_epoch("epoch-1.tsnap").value_or(0), 1u);
  EXPECT_EQ(segment_epoch("epoch-42.tsnap").value_or(0), 42u);
  EXPECT_FALSE(segment_epoch("epoch-.tsnap").has_value());
  EXPECT_FALSE(segment_epoch("epoch-1.tsnap.tmp").has_value());
  EXPECT_FALSE(segment_epoch("epoch-x1.tsnap").has_value());
  EXPECT_FALSE(segment_epoch("snapshot-1.tsnap").has_value());
  EXPECT_FALSE(segment_epoch("epoch-1.csv").has_value());
}

TEST(FleetPersistence, SealedEpochsRemountAndKeepIngesting) {
  const auto log = generated(data::Machine::kTsubame2);
  const auto rows = csv_rows(log);
  const std::size_t third = rows.size() / 3;
  TempDataDir dir("remount");

  auto config = replay_service_config();
  config.tenant.data_dir = dir.path.string();

  {
    FleetService service(config);
    ASSERT_TRUE(service.open_tenant("t2", data::tsubame2_spec()).ok());
    for (std::size_t i = 0; i < third; ++i)
      ASSERT_TRUE(service.ingest_row("t2", rows[i]).ok()) << rows[i];
    ASSERT_TRUE(service.seal("t2").ok());
    for (std::size_t i = third; i < 2 * third; ++i)
      ASSERT_TRUE(service.ingest_row("t2", rows[i]).ok()) << rows[i];
    auto epoch = service.seal("t2");
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(epoch.value(), 2u);
  }  // service (and tenant) die here; only the segments survive

  EXPECT_TRUE(std::filesystem::exists(dir.path / "t2" / "epoch-1.tsnap"));
  EXPECT_TRUE(std::filesystem::exists(dir.path / "t2" / "epoch-2.tsnap"));

  FleetService service(config);
  auto restored = service.restore_tenants();
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value(), 1u);
  // Idempotent: already-open tenants are skipped.
  EXPECT_EQ(service.restore_tenants().value(), 0u);

  auto stats = service.tenant_stats("t2");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().epoch, 2u);
  EXPECT_EQ(stats.value().records, 2 * third);

  // The remounted tenant keeps ingesting where it left off.
  for (std::size_t i = 2 * third; i < rows.size(); ++i)
    ASSERT_TRUE(service.ingest_row("t2", rows[i]).ok()) << rows[i];
  auto epoch = service.seal("t2");
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 3u);
  EXPECT_TRUE(std::filesystem::exists(dir.path / "t2" / "epoch-3.tsnap"));

  // End to end, the remounted + extended tenant answers byte-identically
  // to batch analysis of the full replayed log.
  const auto study = service.query("t2", "study");
  ASSERT_TRUE(study.ok()) << study.error().to_string();
  EXPECT_EQ(study.value().text, batch_study_text(round_tripped(log)));
}

TEST(FleetPersistence, RemountRejectsWrongMachineSegments) {
  const auto log = generated(data::Machine::kTsubame2);
  const auto rows = csv_rows(log);
  TempDataDir dir("mismatch");

  auto config = replay_config();
  config.data_dir = dir.path.string();
  {
    auto tenant = Tenant::open("fleet", data::tsubame2_spec(), config);
    ASSERT_TRUE(tenant.ok());
    ASSERT_TRUE(tenant.value()->ingest_row(rows[0]).ok());
    ASSERT_TRUE(tenant.value()->seal().ok());
  }
  auto reopened = Tenant::open("fleet", data::tsubame3_spec(), config);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.error().to_string().find("machine"), std::string::npos)
      << reopened.error().to_string();
}

TEST(FleetPersistence, EmptyDataDirRestoresNothing) {
  TempDataDir dir("empty");
  auto config = replay_service_config();
  config.tenant.data_dir = dir.path.string();
  FleetService service(config);
  EXPECT_EQ(service.restore_tenants().value(), 0u);
  // A data_dir-less service is also a no-op.
  FleetService plain(replay_service_config());
  EXPECT_EQ(plain.restore_tenants().value(), 0u);
}

TEST(FleetPersistence, TenantNamesWithPathSeparatorsAreRejected) {
  auto tenant = Tenant::open("../escape", data::tsubame2_spec(), replay_config());
  ASSERT_FALSE(tenant.ok());
}

}  // namespace
}  // namespace tsufail::serve
