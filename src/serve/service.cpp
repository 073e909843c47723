#include "serve/service.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <utility>

#include "analysis/study.h"
#include "data/columnar.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "report/study_text.h"

namespace tsufail::serve {
namespace {

obs::Counter& query_requests() {
  static obs::Counter c = obs::counter("serve.query.requests");
  return c;
}
obs::Counter& query_cache_hits() {
  static obs::Counter c = obs::counter("serve.query.cache_hits");
  return c;
}
obs::Counter& query_cache_misses() {
  static obs::Counter c = obs::counter("serve.query.cache_misses");
  return c;
}
obs::Counter& query_errors() {
  static obs::Counter c = obs::counter("serve.query.errors");
  return c;
}
obs::Histogram& query_seconds() {
  // Exemplars on: every bucket remembers its slowest query's trace id,
  // so a burning latency SLO links straight into the Chrome trace.
  static obs::Histogram h = obs::histogram("serve.query.seconds", obs::time_buckets_seconds(),
                                           obs::ExemplarMode::kMaxPerBucket);
  return h;
}
obs::Gauge& tenants_gauge() {
  static obs::Gauge g = obs::gauge("serve.tenants");
  return g;
}
obs::Counter& dropped_series() {
  static obs::Counter c = obs::counter("obs.dropped_series");
  return c;
}

/// Series registered per tenant when per-tenant metrics are on (keep in
/// sync with Tenant's constructor).
constexpr std::size_t kSeriesPerTenant = 7;

// The default objectives' fixed targets (see SloTargets).
constexpr double kQueryBudget = 0.01;
constexpr double kCacheMissBudget = 0.9;
constexpr double kStalenessCeilingSeconds = 600.0;
constexpr double kStalenessBudget = 0.1;

constexpr std::string_view kStudyKey = "study";
constexpr std::string_view kStudySummary =
    "full analyze report (byte-identical to `tsufail analyze`)";

}  // namespace

FleetService::FleetService(ServiceConfig config)
    : config_(config), cache_(config.cache_capacity) {
  query_seconds();  // register eagerly so the first SLO ticks see the histogram
  obs::SloObjective latency;
  latency.name = "serve.query.p99";
  latency.kind = obs::SloKind::kLatencyQuantile;
  latency.metric = "serve.query.seconds";
  latency.threshold = config_.slo.query_p99_seconds;
  latency.quantile = 0.99;
  latency.budget = kQueryBudget;
  slo_.add_objective(std::move(latency));
  obs::SloObjective misses;
  misses.name = "serve.query.cache_miss_ratio";
  misses.kind = obs::SloKind::kErrorRatio;
  misses.metric = "serve.query.cache_misses";
  misses.denominator = "serve.query.requests";
  misses.budget = kCacheMissBudget;
  slo_.add_objective(std::move(misses));
}

Result<void> FleetService::open_tenant(const std::string& name, const data::MachineSpec& spec) {
  return open_tenant(name, spec, config_.tenant);
}

Result<void> FleetService::open_tenant(const std::string& name, const data::MachineSpec& spec,
                                       const TenantConfig& config) {
  return open_tenant(name, spec, config, std::nullopt);
}

Result<void> FleetService::open_tenant(const std::string& name, const data::MachineSpec& spec,
                                       const TenantConfig& config,
                                       std::optional<std::vector<Segment>> segments) {
  TenantConfig effective = config;
  bool metered = effective.per_tenant_metrics;
  {
    // Cardinality cap: past max_tenant_series tenants, per-tenant series
    // are suppressed (counted into obs.dropped_series) so a tenant flood
    // cannot grow the registry without bound.
    std::unique_lock lock(tenants_mutex_);
    if (metered && metered_tenants_ >= config_.max_tenant_series) {
      effective.per_tenant_metrics = false;
      metered = false;
      dropped_series().add(kSeriesPerTenant);
    }
  }
  auto tenant = Tenant::open(name, spec, effective, std::move(segments));
  if (!tenant.ok()) return tenant.error().with_context("open tenant");
  // The callback outlives nothing: tenants are owned by (and die with)
  // this service, and QueryCache is internally synchronized.
  tenant.value()->set_epoch_callback([this](const std::string& who, std::uint64_t epoch) {
    cache_.invalidate_before(who, epoch);
  });
  std::unique_lock lock(tenants_mutex_);
  auto [it, inserted] = tenants_.emplace(name, std::move(tenant).value());
  if (!inserted)
    return Error(ErrorKind::kValidation, "tenant '" + name + "' is already open");
  if (metered) {
    ++metered_tenants_;
    // Watermark-staleness objective over the tenant's staleness gauge
    // (refreshed by slo_tick): released records must become queryable
    // within the ceiling.
    obs::SloObjective objective;
    objective.name = "serve.tenant." + name + ".staleness";
    objective.kind = obs::SloKind::kStalenessMax;
    objective.metric = "serve.tenant." + name + ".staleness";
    objective.threshold = kStalenessCeilingSeconds;
    objective.budget = kStalenessBudget;
    slo_.add_objective(std::move(objective));
  }
  tenants_gauge().set(static_cast<double>(tenants_.size()));
  return {};
}

Result<std::size_t> FleetService::restore_tenants() {
  namespace fs = std::filesystem;
  if (config_.tenant.data_dir.empty()) return std::size_t{0};
  const fs::path root(config_.tenant.data_dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return std::size_t{0};

  // Collect candidate tenant names first so restores happen in a
  // deterministic (ascending) order regardless of directory iteration.
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory()) names.push_back(entry.path().filename().string());
  }
  if (ec)
    return Error(ErrorKind::kIo,
                 "cannot list data directory " + root.string() + ": " + ec.message());
  std::sort(names.begin(), names.end());

  std::size_t restored = 0;
  for (const auto& name : names) {
    if (find(name) != nullptr) continue;
    // The newest segment carries the tenant's machine spec; directories
    // with no segments are not tenants and are skipped.  The tenant
    // re-mounts the segments opened here, so each is opened once.
    auto segments = open_segments(root / name);
    if (!segments.ok()) return segments.error().with_context("restore tenant '" + name + "'");
    if (segments.value().empty()) continue;
    const data::MachineSpec spec = segments.value().back().snapshot->spec();
    auto opened = open_tenant(name, spec, config_.tenant, std::move(segments).value());
    if (!opened.ok()) return opened.error().with_context("restore tenant '" + name + "'");
    ++restored;
  }
  return restored;
}

Tenant* FleetService::find(const std::string& name) const {
  std::shared_lock lock(tenants_mutex_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Result<stream::IngestOutcome> FleetService::ingest_row(const std::string& tenant,
                                                       std::string_view row) {
  Tenant* t = find(tenant);
  if (t == nullptr) return Error(ErrorKind::kNotFound, "unknown tenant '" + tenant + "'");
  return t->ingest_row(row);
}

Result<std::uint64_t> FleetService::seal(const std::string& tenant) {
  Tenant* t = find(tenant);
  if (t == nullptr) return Error(ErrorKind::kNotFound, "unknown tenant '" + tenant + "'");
  return t->seal();
}

Result<FleetService::QueryResponse> FleetService::query(const std::string& tenant,
                                                        std::string_view key) {
  OBS_SPAN("serve.query");
  obs::Stopwatch timer;
  query_requests().add();

  Tenant* t = find(tenant);
  if (t == nullptr) {
    query_errors().add();
    return Error(ErrorKind::kNotFound, "unknown tenant '" + tenant + "'");
  }
  if (!is_key(key)) {
    query_errors().add();
    return Error(ErrorKind::kNotFound,
                 "unknown query key '" + std::string(key) + "' (see KEYS)");
  }

  data::SnapshotPtr snapshot = t->snapshot();
  const std::uint64_t epoch = snapshot->epoch();

  if (auto hit = cache_.get(tenant, epoch, key)) {
    query_cache_hits().add();
    query_seconds().observe(timer.seconds());
    return QueryResponse{epoch, true, std::move(*hit)};
  }
  query_cache_misses().add();

  Result<std::string> text = [&]() -> Result<std::string> {
    if (key == kStudyKey) {
      auto study = analysis::run_study(snapshot->index(), {config_.study_jobs});
      if (!study.ok()) return study.error();
      return report::render_study_text(snapshot->index(), study.value());
    }
    return analysis::run_query(key, snapshot->index());
  }();
  if (!text.ok()) {
    query_errors().add();
    query_seconds().observe(timer.seconds());
    return text.error().with_context("query '" + std::string(key) + "' on '" + tenant + "'");
  }

  cache_.put(tenant, epoch, key, text.value());
  query_seconds().observe(timer.seconds());
  return QueryResponse{epoch, false, std::move(text).value()};
}

Result<TenantStats> FleetService::tenant_stats(const std::string& tenant) const {
  Tenant* t = find(tenant);
  if (t == nullptr) return Error(ErrorKind::kNotFound, "unknown tenant '" + tenant + "'");
  return t->stats();
}

Result<std::vector<stream::Alert>> FleetService::recent_alerts(const std::string& tenant) const {
  Tenant* t = find(tenant);
  if (t == nullptr) return Error(ErrorKind::kNotFound, "unknown tenant '" + tenant + "'");
  return t->recent_alerts();
}

std::vector<std::string> FleetService::tenant_names() const {
  std::shared_lock lock(tenants_mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;  // std::map keeps them ascending
}

std::vector<analysis::QueryKey> FleetService::keys() {
  std::vector<analysis::QueryKey> out;
  auto base = analysis::query_keys();
  out.reserve(base.size() + 1);
  out.push_back({kStudyKey, kStudySummary});
  out.insert(out.end(), base.begin(), base.end());
  return out;
}

bool FleetService::is_key(std::string_view key) noexcept {
  return key == kStudyKey || analysis::is_query_key(key);
}

std::string FleetService::metrics_text() {
  return obs::prometheus_text(obs::collect_metrics());
}

void FleetService::slo_tick(std::uint64_t now_ns) {
  if (now_ns == 0) now_ns = obs::now_ns();
  // Refresh the per-tenant staleness gauges before snapshotting; stats()
  // writes the gauge as a side effect.
  {
    std::shared_lock lock(tenants_mutex_);
    for (const auto& [name, tenant] : tenants_) (void)tenant->stats();
  }
  slo_.tick(obs::collect_metrics(), now_ns);
}

std::vector<obs::SloStatus> FleetService::slo_statuses(std::uint64_t now_ns) const {
  return slo_.evaluate(now_ns == 0 ? obs::now_ns() : now_ns);
}

std::string FleetService::slo_text(std::uint64_t now_ns) const {
  return obs::render_slo_text(slo_statuses(now_ns));
}

obs::SloState FleetService::health_state(std::uint64_t now_ns) const {
  return obs::aggregate_slo_state(slo_statuses(now_ns));
}

std::string FleetService::healthz_text(std::uint64_t now_ns) const {
  const std::vector<obs::SloStatus> statuses = slo_statuses(now_ns);
  std::string out = "status ";
  out += obs::slo_state_name(obs::aggregate_slo_state(statuses));
  out += '\n';
  constexpr std::string_view kTenantPrefix = "serve.tenant.";
  for (const obs::SloStatus& status : statuses) {
    if (status.objective.starts_with(kTenantPrefix)) {
      const std::string_view tail =
          std::string_view(status.objective).substr(kTenantPrefix.size());
      out += "tenant ";
      out += tail.substr(0, tail.find('.'));
    } else {
      out += "fleet";
    }
    out += ' ';
    out += status.objective;
    out += ' ';
    out += obs::slo_state_name(status.state);
    out += ' ';
    out += status.reason;
    out += '\n';
  }
  return out;
}

}  // namespace tsufail::serve
