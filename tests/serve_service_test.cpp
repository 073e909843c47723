// FleetService + Tenant + QueryCache semantics: epoch-merged queries are
// byte-identical to one-shot batch analysis, cache entries die on epoch
// bumps, the LRU stays bounded, and a garbage row never poisons a
// tenant's pipeline.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/query.h"
#include "analysis/study.h"
#include "data/columnar.h"
#include "data/log_io.h"
#include "index_identity.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "report/study_text.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "util/csv.h"

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

TEST(FleetService, SlackHoursWidenEveryWindowCheckARowMeets) {
  // StreamConfig::slack_hours is the tenant's one window slack: the
  // stream's row validation applies it as well as the epoch merge.
  auto config = replay_service_config();
  config.tenant.stream.slack_hours = 48.0;
  FleetService service(config);
  const data::MachineSpec spec = data::tsubame3_spec();
  ASSERT_TRUE(service.open_tenant("t3", spec).ok());
  const auto row_past_end = [&spec](double hours) {
    return "tsubame-3," + format_time(spec.log_end.plus_hours(hours)) + ",12,gpu,2.0,1,unknown";
  };
  const auto inside = service.ingest_row("t3", row_past_end(1.0));
  ASSERT_TRUE(inside.ok()) << inside.error().to_string();
  EXPECT_EQ(inside.value(), stream::IngestOutcome::kAccepted);
  const auto outside = service.ingest_row("t3", row_past_end(49.0));
  ASSERT_TRUE(outside.ok()) << outside.error().to_string();
  EXPECT_EQ(outside.value(), stream::IngestOutcome::kQuarantinedInvalid);

  const auto epoch = service.seal("t3");
  ASSERT_TRUE(epoch.ok()) << epoch.error().to_string();
  EXPECT_EQ(epoch.value(), 1u);
  const auto stats = service.tenant_stats("t3");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 1u);
  EXPECT_EQ(stats.value().stream.quarantined_invalid, 1u);
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
  // Only the names persist_segment writes: no leading zero, no epoch 0
  // (epoch 0 is the empty snapshot and is never sealed), nothing that
  // overflows 64 bits.
  EXPECT_FALSE(segment_epoch("epoch-01.tsnap").has_value());
  EXPECT_FALSE(segment_epoch("epoch-0.tsnap").has_value());
  EXPECT_FALSE(segment_epoch("epoch-00.tsnap").has_value());
  EXPECT_FALSE(segment_epoch("epoch-18446744073709551617.tsnap").has_value());
  EXPECT_FALSE(segment_epoch("epoch-18446744073709551616.tsnap").has_value());
  EXPECT_EQ(segment_epoch("epoch-18446744073709551615.tsnap").value_or(0),
            18446744073709551615u);
  EXPECT_EQ(segment_epoch("epoch-10.tsnap").value_or(0), 10u);
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

TEST(FleetPersistence, EachSegmentHoldsExactlyTheRecordsItsEpochSealed) {
  const auto log = generated(data::Machine::kTsubame3);
  const auto rows = csv_rows(log);
  const std::size_t half = rows.size() / 2;
  TempDataDir dir("segments");

  auto config = replay_config();
  config.data_dir = dir.path.string();
  auto tenant = Tenant::open("t3", data::tsubame3_spec(), config);
  ASSERT_TRUE(tenant.ok()) << tenant.error().to_string();
  std::vector<std::vector<data::FailureRecord>> sealed(2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(tenant.value()->ingest_row(rows[i]).ok()) << rows[i];
    sealed[i < half ? 0 : 1].push_back(data::parse_record_row(rows[i]).value().second);
    if (i + 1 == half || i + 1 == rows.size()) {
      ASSERT_TRUE(tenant.value()->seal().ok());
    }
  }
  ASSERT_EQ(tenant.value()->snapshot()->epoch(), 2u);

  for (std::size_t epoch = 1; epoch <= 2; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const auto& expected = sealed[epoch - 1];
    const std::string path =
        (dir.path / "t3" / ("epoch-" + std::to_string(epoch) + ".tsnap")).string();
    auto segment = data::ColumnarSnapshot::open(path);
    ASSERT_TRUE(segment.ok()) << segment.error().to_string();
    ASSERT_EQ(segment.value()->size(), expected.size());
    const data::FailureLog materialized = segment.value()->to_log();
    for (std::uint32_t i = 0; i < expected.size(); ++i) {
      const data::FailureRecord& got = materialized.records()[i];
      EXPECT_EQ(got.time, expected[i].time) << "record " << i;
      EXPECT_EQ(got.node, expected[i].node) << "record " << i;
      EXPECT_EQ(got.category, expected[i].category) << "record " << i;
      EXPECT_EQ(got.ttr_hours, expected[i].ttr_hours) << "record " << i;
      EXPECT_EQ(got.gpu_slots, expected[i].gpu_slots) << "record " << i;
      EXPECT_EQ(got.root_locus, expected[i].root_locus) << "record " << i;
    }
    auto bytes = read_text_file(path);
    ASSERT_TRUE(bytes.ok()) << bytes.error().to_string();
    EXPECT_TRUE(bytes.value() == data::pack_columnar(data::tsubame3_spec(), expected));
  }
}

TEST(FleetPersistence, RemountIgnoresAStrayNonCanonicalSegmentName) {
  const auto log = generated(data::Machine::kTsubame3);
  const auto rows = csv_rows(log);
  TempDataDir dir("stray");

  auto config = replay_config();
  config.data_dir = dir.path.string();
  {
    auto tenant = Tenant::open("t3", data::tsubame3_spec(), config);
    ASSERT_TRUE(tenant.ok()) << tenant.error().to_string();
    for (const auto& row : rows) ASSERT_TRUE(tenant.value()->ingest_row(row).ok()) << row;
    ASSERT_TRUE(tenant.value()->seal().ok());
  }
  // A stray copy whose name parses to the same epoch: persist_segment
  // never writes it, so remount must not mount it a second time.
  std::filesystem::copy_file(dir.path / "t3" / "epoch-1.tsnap", dir.path / "t3" / "epoch-01.tsnap");

  auto reopened = Tenant::open("t3", data::tsubame3_spec(), config);
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_EQ(reopened.value()->snapshot()->epoch(), 1u);
  EXPECT_EQ(reopened.value()->snapshot()->size(), rows.size());
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

/// Writes `epochs` as the segments a tenant named `tenant` would have
/// sealed: <dir>/<tenant>/epoch-<k>.tsnap holds epochs[k - 1].
void write_segments(const std::filesystem::path& dir, const std::string& tenant,
                    const data::MachineSpec& spec,
                    const std::vector<std::vector<data::FailureRecord>>& epochs) {
  std::filesystem::create_directories(dir / tenant);
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    const auto path = dir / tenant / ("epoch-" + std::to_string(k + 1) + ".tsnap");
    ASSERT_TRUE(
        data::write_columnar_file(path.string(), data::pack_columnar(spec, epochs[k])).ok());
  }
}

/// `records` cut into consecutive epochs at the ascending positions `cuts`.
std::vector<std::vector<data::FailureRecord>> cut(const std::vector<data::FailureRecord>& records,
                                                  const std::vector<std::size_t>& cuts) {
  std::vector<std::vector<data::FailureRecord>> epochs;
  std::size_t from = 0;
  for (std::size_t to : cuts) {
    epochs.emplace_back(records.begin() + static_cast<std::ptrdiff_t>(from),
                        records.begin() + static_cast<std::ptrdiff_t>(to));
    from = to;
  }
  epochs.emplace_back(records.begin() + static_cast<std::ptrdiff_t>(from), records.end());
  return epochs;
}

TEST(FleetPersistence, RemountIndexesUnevenSegmentsLikeTheirConcatenatedLog) {
  const data::MachineSpec spec = data::tsubame3_spec();
  const auto log = generated(data::Machine::kTsubame3);
  std::vector<data::FailureRecord> records(log.records().begin(), log.records().end());
  ASSERT_GT(records.size(), 300u);
  // Seven uneven segments: epochs 2 and 5 hold one record each, and the
  // seam between epochs 3 and 4 has the same timestamp on both sides.
  const std::vector<std::size_t> cuts = {37, 38, 90, 200, 201, 260};
  records[90].time = records[89].time;
  const auto epochs = cut(records, cuts);
  ASSERT_EQ(epochs.size(), 7u);
  TempDataDir dir("identity");
  write_segments(dir.path, "t3", spec, epochs);

  const auto whole = data::FailureLog::create(spec, records).value();
  auto config = replay_service_config();
  config.tenant.data_dir = dir.path.string();
  auto tenant = Tenant::open("t3", spec, config.tenant);
  ASSERT_TRUE(tenant.ok()) << tenant.error().to_string();
  EXPECT_EQ(tenant.value()->snapshot()->epoch(), 7u);
  data::expect_bit_identical(data::LogIndex(whole), tenant.value()->snapshot()->index());

  FleetService service(config);
  ASSERT_EQ(service.restore_tenants().value(), 1u);
  const auto study = service.query("t3", "study");
  ASSERT_TRUE(study.ok()) << study.error().to_string();
  EXPECT_EQ(study.value().text, batch_study_text(whole));
}

TEST(FleetPersistence, RestartOpensEachSegmentOnce) {
  // The restart reads the tenant's spec off the newest segment and
  // re-mounts every segment: one columnar.open span per segment file.
  const data::MachineSpec spec = data::tsubame3_spec();
  const auto log = generated(data::Machine::kTsubame3);
  const std::vector<data::FailureRecord> records(log.records().begin(), log.records().end());
  TempDataDir dir("open_once");
  write_segments(dir.path, "t3", spec, cut(records, {100, 200}));
  auto config = replay_service_config();
  config.tenant.data_dir = dir.path.string();

  obs::reset_trace();
  obs::set_enabled(true);
  FleetService service(config);
  const auto restored = service.restore_tenants();
  obs::set_enabled(false);
  const obs::TraceSnapshot trace = obs::collect_trace();
  obs::reset_trace();
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  ASSERT_EQ(restored.value(), 1u);
  EXPECT_EQ(service.tenant_stats("t3").value().records, records.size());

  ASSERT_EQ(trace.dropped_total(), 0u);
  std::size_t opens = 0;
  for (const auto& thread : trace.threads)
    for (const auto& span : thread.spans) opens += std::string_view(span.name) == "columnar.open";
  EXPECT_EQ(opens, 3u);
}

/// Opens a Tsubame-3 tenant over two hand-packed segments in the data
/// dir `tag`, the second holding `bad` after one good record; the open
/// must be refused with kValidation and a message naming `what`.
void expect_remount_refuses(const std::string& tag, const data::FailureRecord& bad,
                            const std::string& what, double slack_hours = 0.0) {
  const data::MachineSpec spec = data::tsubame3_spec();
  const auto log = generated(data::Machine::kTsubame3);
  const std::vector<data::FailureRecord> first(log.records().begin(), log.records().begin() + 10);
  TempDataDir dir(tag);
  write_segments(dir.path, "t3", spec, {first, {first.back(), bad}});
  auto config = replay_config();
  config.stream.slack_hours = slack_hours;
  config.data_dir = dir.path.string();
  auto tenant = Tenant::open("t3", spec, config);
  ASSERT_FALSE(tenant.ok());
  EXPECT_EQ(tenant.error().kind(), ErrorKind::kValidation);
  EXPECT_NE(tenant.error().to_string().find(what), std::string::npos)
      << tenant.error().to_string();
}

/// A valid Tsubame-3 record late in the window.
data::FailureRecord late_record() {
  const auto log = generated(data::Machine::kTsubame3);
  data::FailureRecord record = log.records()[10];
  record.time = log.spec().log_end.plus_hours(-1.0);
  return record;
}

TEST(FleetPersistence, RemountRefusesACategoryOutsideTheMachineVocabulary) {
  data::FailureRecord bad = late_record();
  bad.category = data::Category::kBoot;  // Tsubame-2 only
  bad.gpu_slots.clear();
  expect_remount_refuses("vocabulary", bad, "vocabulary");
}

TEST(FleetPersistence, RemountRefusesGpuSlotsOnANonGpuCategory) {
  data::FailureRecord bad = late_record();
  bad.category = data::Category::kCpu;
  bad.gpu_slots = {1};
  expect_remount_refuses("non_gpu", bad, "non-GPU");
}

TEST(FleetPersistence, RemountRefusesARecordOutsideTheWindowAndTheSlack) {
  const data::MachineSpec spec = data::tsubame3_spec();
  data::FailureRecord bad = late_record();
  bad.time = spec.log_end.plus_hours(49.0);
  expect_remount_refuses("window", bad, "outside the log window", 48.0);
  bad.time = spec.log_end.plus_hours(1.0);
  expect_remount_refuses("window", bad, "outside the log window");

  // Inside the slack, the same segment mounts.
  TempDataDir dir("slack");
  write_segments(dir.path, "t3", spec, {{bad}});
  auto config = replay_config();
  config.stream.slack_hours = 48.0;
  config.data_dir = dir.path.string();
  auto tenant = Tenant::open("t3", spec, config);
  ASSERT_TRUE(tenant.ok()) << tenant.error().to_string();
  EXPECT_EQ(tenant.value()->snapshot()->size(), 1u);
}

TEST(FleetPersistence, RemountNamesBothGeometriesOfAMismatchedSegment) {
  // Same machine and name, one more node and GPU: the refusal must show
  // what differs, not two equal machine names.
  const data::MachineSpec spec = data::tsubame3_spec();
  data::MachineSpec packed = spec;
  ++packed.node_count;
  ++packed.gpus_per_node;
  TempDataDir dir("geometry");
  write_segments(dir.path, "t3", packed, {{}});
  auto config = replay_config();
  config.data_dir = dir.path.string();
  auto tenant = Tenant::open("t3", spec, config);
  ASSERT_FALSE(tenant.ok());
  EXPECT_EQ(tenant.error().kind(), ErrorKind::kValidation);
  const std::string message = tenant.error().to_string();
  for (const data::MachineSpec& side : {packed, spec})
    EXPECT_NE(message.find("(" + std::to_string(side.node_count) + " nodes x " +
                           std::to_string(side.gpus_per_node) + " GPUs)"),
              std::string::npos)
        << message;
}

TEST(FleetPersistence, RemountRefusesOverlappingSegments) {
  // Seals never write a segment that starts before the previous one ends;
  // remount refuses such a pair instead of re-sorting it.
  const data::MachineSpec spec = data::tsubame3_spec();
  const auto log = generated(data::Machine::kTsubame3);
  const auto records = log.records();
  const auto at = [&records](std::size_t from, std::size_t to) {
    return std::vector<data::FailureRecord>(records.begin() + static_cast<std::ptrdiff_t>(from),
                                            records.begin() + static_cast<std::ptrdiff_t>(to));
  };
  // Epoch 3 repeats the second half of epoch 2.
  const std::vector<std::vector<data::FailureRecord>> epochs = {at(0, 100), at(100, 200),
                                                                at(150, log.size())};
  ASSERT_LT(records[150].time, records[199].time);
  TempDataDir dir("overlap");
  write_segments(dir.path, "t3", spec, epochs);
  auto config = replay_config();
  config.data_dir = dir.path.string();
  auto tenant = Tenant::open("t3", spec, config);
  ASSERT_FALSE(tenant.ok());
  EXPECT_EQ(tenant.error().kind(), ErrorKind::kValidation);
  EXPECT_NE(tenant.error().to_string().find("epoch-3.tsnap starts before the previous epoch's"),
            std::string::npos)
      << tenant.error().to_string();
}

TEST(FleetPersistence, RemountRefusesAMissingEpoch) {
  const data::MachineSpec spec = data::tsubame3_spec();
  const auto log = generated(data::Machine::kTsubame3);
  const std::vector<data::FailureRecord> records(log.records().begin(), log.records().end());
  TempDataDir dir("gap");
  write_segments(dir.path, "t3", spec, cut(records, {100, 200, 250, 300}));
  std::filesystem::remove(dir.path / "t3" / "epoch-3.tsnap");
  std::filesystem::remove(dir.path / "t3" / "epoch-4.tsnap");

  auto listed = list_segments(dir.path / "t3");
  ASSERT_FALSE(listed.ok());
  EXPECT_EQ(listed.error().kind(), ErrorKind::kValidation);
  auto config = replay_service_config();
  config.tenant.data_dir = dir.path.string();
  auto tenant = Tenant::open("t3", spec, config.tenant);
  ASSERT_FALSE(tenant.ok());
  EXPECT_EQ(tenant.error().kind(), ErrorKind::kValidation);
  EXPECT_NE(tenant.error().to_string().find("epoch-3.tsnap is missing"), std::string::npos)
      << tenant.error().to_string();
  FleetService service(config);
  EXPECT_FALSE(service.restore_tenants().ok());

  // With epoch 3 back and epoch 5 gone, the same directory lists 1..4.
  write_segments(dir.path, "t3", spec, cut(records, {100, 200, 250, 300}));
  std::filesystem::remove(dir.path / "t3" / "epoch-5.tsnap");
  listed = list_segments(dir.path / "t3");
  ASSERT_TRUE(listed.ok()) << listed.error().to_string();
  ASSERT_EQ(listed.value().size(), 4u);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(listed.value()[k].filename(), "epoch-" + std::to_string(k + 1) + ".tsnap");
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
