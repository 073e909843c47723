// FleetService: the multi-tenant core of `tsufail serve`.
//
// One service owns many tenants (fleets) concurrently, each running the
// full EventStream -> epoch merge -> LogSnapshot pipeline, plus the one
// shared QueryCache.  The protocol and HTTP layers are thin translators
// over this API, so everything observable over a socket is testable here
// without one.
//
// Concurrency: the tenant map is guarded by a shared_mutex (opens are
// rare, lookups constant); per-tenant synchronization lives inside
// Tenant; the cache carries its own lock.  A query therefore touches
// three short critical sections and computes on an immutable snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/query.h"
#include "obs/slo.h"
#include "serve/cache.h"
#include "serve/tenant.h"

namespace tsufail::serve {

/// Targets for the service's default objectives.  The query-latency
/// objective allows 1% slow queries; the cache-miss objective allows a 90%
/// miss ratio (cold caches miss); each metered tenant's staleness objective
/// allows 10% of ticks with a record waiting more than 600 s for a seal.
struct SloTargets {
  double query_p99_seconds = 0.1;  ///< "99% of queries answer within this"
};

struct ServiceConfig {
  /// Shared query-cache capacity (entries across all tenants; 0 = off).
  std::size_t cache_capacity = 256;
  /// Defaults applied to tenants opened without an explicit config.
  TenantConfig tenant;
  /// Worker threads for "study" queries (see analysis::StudyOptions).
  std::size_t study_jobs = 1;
  /// Cardinality cap: at most this many tenants register per-tenant
  /// series (serve.tenant.<name>.*).  Tenants past the cap still work,
  /// but open with per-tenant metrics off and count into
  /// obs.dropped_series — a tenant flood cannot blow up the registry.
  std::size_t max_tenant_series = 64;
  /// Default objectives for the SLO engine.
  SloTargets slo;
};

class FleetService {
 public:
  explicit FleetService(ServiceConfig config = {});

  /// Opens a tenant with the service-default tenant config.  Errors:
  /// duplicate name or Tenant::open failures.
  Result<void> open_tenant(const std::string& name, const data::MachineSpec& spec);
  Result<void> open_tenant(const std::string& name, const data::MachineSpec& spec,
                           const TenantConfig& config);

  /// Re-opens every tenant persisted under the default tenant config's
  /// data_dir (each subdirectory holding epoch-*.tsnap segments becomes
  /// one tenant, its spec read from the newest segment).  Tenants whose
  /// names are already open are skipped.  Returns how many were
  /// restored; a no-op when data_dir is empty or missing.
  Result<std::size_t> restore_tenants();

  /// Ingests one canonical CSV row into a tenant.
  Result<stream::IngestOutcome> ingest_row(const std::string& tenant, std::string_view row);

  /// Seals the tenant's pending records into a new epoch (see
  /// Tenant::seal); the cache drops the tenant's stale epochs.
  Result<std::uint64_t> seal(const std::string& tenant);

  /// One answered query: which epoch it reflects, whether the cache
  /// served it, and the rendered fragment.
  struct QueryResponse {
    std::uint64_t epoch = 0;
    bool cached = false;
    std::string text;
  };

  /// Answers one keyed query against the tenant's current snapshot.
  /// Keys: "study" (the full `tsufail analyze` text) plus everything in
  /// analysis::query_keys().  Errors (unknown tenant/key, analysis
  /// domain errors) are never cached.
  Result<QueryResponse> query(const std::string& tenant, std::string_view key);

  Result<TenantStats> tenant_stats(const std::string& tenant) const;
  Result<std::vector<stream::Alert>> recent_alerts(const std::string& tenant) const;

  /// Open tenant names, ascending.
  std::vector<std::string> tenant_names() const;

  /// The full query vocabulary ("study" first, then the analysis keys).
  static std::vector<analysis::QueryKey> keys();
  /// True iff `key` is servable by query().
  static bool is_key(std::string_view key) noexcept;

  QueryCache::Stats cache_stats() const { return cache_.stats(); }

  /// Prometheus text exposition of the whole obs registry (global
  /// serve.* aggregates plus per-tenant series).
  static std::string metrics_text();

  /// One SLO evaluation tick: refreshes per-tenant staleness gauges,
  /// snapshots the registry, and feeds the engine.  The serve daemon
  /// calls this once a second; tests call it with synthetic timestamps.
  /// `now_ns` = 0 means obs::now_ns().
  void slo_tick(std::uint64_t now_ns = 0);

  /// Every objective's status as of `now_ns` (0 = obs::now_ns()).
  std::vector<obs::SloStatus> slo_statuses(std::uint64_t now_ns = 0) const;

  /// The /slo page (render_slo_text over slo_statuses).
  std::string slo_text(std::uint64_t now_ns = 0) const;

  /// The /healthz page: "status <STATE>" headline, then one line per
  /// objective — "fleet <objective> <STATE> <reason>" for service-wide
  /// objectives, "tenant <name> <objective> <STATE> <reason>" for
  /// per-tenant ones.
  std::string healthz_text(std::uint64_t now_ns = 0) const;

  /// Aggregate state across all objectives (kNoData never escalates).
  obs::SloState health_state(std::uint64_t now_ns = 0) const;

  const ServiceConfig& config() const noexcept { return config_; }

 private:
  /// open_tenant(), the tenant re-mounting `segments` when given (see
  /// Tenant::open).
  Result<void> open_tenant(const std::string& name, const data::MachineSpec& spec,
                           const TenantConfig& config,
                           std::optional<std::vector<Segment>> segments);
  Tenant* find(const std::string& name) const;

  ServiceConfig config_;
  QueryCache cache_;
  obs::SloEngine slo_;
  std::size_t metered_tenants_ = 0;  ///< tenants granted per-tenant series
  mutable std::shared_mutex tenants_mutex_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace tsufail::serve
