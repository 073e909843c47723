// Tenant: one fleet's live pipeline inside the serve daemon.
//
//   ingest (CSV row) -> EventStream (reorder + quarantine)
//          -> sealed buffer -> epoch refresh (LogSnapshot::extend)
//          -> atomic snapshot swap -> queries
//
// Two locks with a strict story: `ingest_mutex_` serializes writers
// (EventStream, the health monitor, the sealed buffer) and
// `snapshot_mutex_` guards only the current-snapshot pointer.  A query
// copies the SnapshotPtr under the latter and then runs entirely on its
// own immutable snapshot, so readers never block on ingest or on an
// in-flight epoch merge; the merge itself runs outside both locks and
// swaps the pointer at the end.
//
// Every released record also feeds a HealthMonitor + AlertEngine pair
// running the same default rule set as `tsufail watch`
// (stream::default_rules — one definition, two consumers), with raise
// and clear transitions counted into per-tenant obs metrics.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/snapshot.h"
#include "obs/metrics.h"
#include "stream/alerts.h"
#include "stream/event_stream.h"
#include "stream/health.h"

namespace tsufail::serve {

struct TenantConfig {
  stream::StreamConfig stream;
  /// Not a setting: stream.slack_hours is the tenant's one window slack
  /// (the stream's validation, the epoch merge and the remount).  This
  /// constant stays only while the perfbench harness still reads it.
  static constexpr double slack_hours = 0.0;
  /// Seal automatically once this many released records are waiting
  /// (0 = epochs are sealed only by an explicit seal call).
  std::uint64_t auto_epoch_events = 0;
  /// Register per-tenant obs counters/gauges (serve.tenant.<name>.*).
  /// Global serve.* aggregates are always maintained.
  bool per_tenant_metrics = true;
  /// Run the default alert rule set over the released stream, calibrated
  /// to the paper's failure count for the machine.
  bool alerts = true;
  /// Root directory for columnar epoch segments ("" = in-memory only).
  /// When set, every sealed epoch N atomically writes
  /// <data_dir>/<tenant>/epoch-N.tsnap (a columnar snapshot,
  /// checksummed) and open() re-mounts the segments already on disk —
  /// the tenant comes back at its last sealed epoch without replaying
  /// the event stream.  The reorder buffer itself is not persisted:
  /// records still in flight at shutdown re-enter through ingest.
  std::string data_dir;
};

/// Parses a persisted segment filename into its epoch number: exactly
/// the names persist_segment writes, "epoch-<N>.tsnap" with N >= 1 in
/// canonical decimal (no leading zero) that fits in 64 bits.
std::optional<std::uint64_t> segment_epoch(const std::string& filename);

/// A tenant directory's segments in epoch order (element k is
/// epoch-<k+1>.tsnap; other names are ignored).  Errors: kIo (unlistable),
/// kValidation naming the first missing epoch when they are not 1..N.
Result<std::vector<std::filesystem::path>> list_segments(const std::filesystem::path& dir);

/// One tenant's counters, consistent at a point in time.
struct TenantStats {
  stream::StreamStats stream;
  std::uint64_t epoch = 0;
  std::size_t records = 0;          ///< records in the current snapshot
  std::size_t sealed_pending = 0;   ///< released, awaiting the next epoch
  std::uint64_t bad_rows = 0;       ///< rows that never parsed to a record
  std::uint64_t alerts_fired = 0;
  std::uint64_t alerts_cleared = 0;
  /// Wall-clock age (seconds) of the oldest released record still
  /// waiting for a seal — the tenant's watermark staleness.  0 when
  /// nothing is pending.
  double staleness_seconds = 0.0;
};

class Tenant {
 public:
  /// Opens a tenant with an empty epoch-0 snapshot — or, when
  /// config.data_dir holds previously sealed segments for this name,
  /// re-mounted at its last persisted epoch.  Errors: invalid stream
  /// config or monitor grid for this spec, or segments that are missing,
  /// invalid, or not this machine's log in order (remount_segments).
  static Result<std::unique_ptr<Tenant>> open(std::string name, const data::MachineSpec& spec,
                                              const TenantConfig& config);

  const std::string& name() const noexcept { return name_; }
  const data::MachineSpec& spec() const noexcept { return spec_; }

  /// Ingests one canonical CSV row (write_log_csv shape, no header).
  /// Parse failures and spec-mismatched machines are counted (bad_rows)
  /// and reported back as a value-level error without touching pipeline
  /// state — one garbage line must never poison the tenant.  Thread-safe.
  Result<stream::IngestOutcome> ingest_row(std::string_view row);

  /// Ingests an already-parsed record.  Thread-safe.
  Result<stream::IngestOutcome> ingest(const data::FailureRecord& record);

  /// Seals the current epoch: flushes nothing from the reorder buffer
  /// (the watermark owns that), but merges every *released* record into
  /// a new snapshot and swaps it in.  Returns the new epoch, or the
  /// current one if nothing was pending.  Thread-safe; concurrent seals
  /// serialize.
  Result<std::uint64_t> seal();

  /// The current snapshot (immutable; safe to use for any duration).
  data::SnapshotPtr snapshot() const;

  TenantStats stats() const;

  /// Most recent alert transitions, oldest first.
  std::vector<stream::Alert> recent_alerts() const;

  /// Invoked after every epoch swap with (tenant name, new epoch); the
  /// service hooks cache invalidation here.
  void set_epoch_callback(std::function<void(const std::string&, std::uint64_t)> callback) {
    epoch_callback_ = std::move(callback);
  }

 private:
  Tenant(std::string name, data::MachineSpec spec, const TenantConfig& config);

  void consume_released();  ///< drains the stream; caller holds ingest_mutex_

  /// Re-mounts every epoch segment under data_dir (ascending epoch) into
  /// the starting snapshot.  Returns the restored epoch (0 = none).
  Result<std::uint64_t> remount_segments();
  /// Persists `suffix` (the records epoch `epoch` added) as a segment.
  Result<void> persist_segment(std::uint64_t epoch,
                               std::span<const data::FailureRecord> suffix) const;

  std::string name_;
  data::MachineSpec spec_;
  TenantConfig config_;

  mutable std::mutex ingest_mutex_;
  std::optional<stream::EventStream> events_;
  std::optional<stream::HealthMonitor> monitor_;
  std::optional<stream::AlertEngine> engine_;
  std::vector<data::FailureRecord> sealed_pending_;
  std::uint64_t pending_since_ns_ = 0;  ///< obs clock when pending became non-empty
  std::deque<stream::Alert> alert_history_;
  std::uint64_t bad_rows_ = 0;
  std::uint64_t alerts_fired_ = 0;
  std::uint64_t alerts_cleared_ = 0;

  std::mutex seal_mutex_;  ///< serializes epoch merges
  mutable std::mutex snapshot_mutex_;
  data::SnapshotPtr snapshot_;

  std::function<void(const std::string&, std::uint64_t)> epoch_callback_;

  // Per-tenant metric handles (engaged when per_tenant_metrics).
  std::optional<obs::Counter> ingested_counter_;
  std::optional<obs::Counter> quarantined_counter_;
  std::optional<obs::Counter> fired_counter_;
  std::optional<obs::Counter> cleared_counter_;
  std::optional<obs::Gauge> epoch_gauge_;
  std::optional<obs::Gauge> records_gauge_;
  // mutable: const stats() refreshes the gauge as a side effect.
  mutable std::optional<obs::Gauge> staleness_gauge_;
};

}  // namespace tsufail::serve
