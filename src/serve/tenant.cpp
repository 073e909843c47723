#include "serve/tenant.h"

#include <charconv>
#include <cstdint>
#include <filesystem>
#include <map>
#include <system_error>
#include <utility>

#include "data/columnar.h"
#include "data/log_io.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace tsufail::serve {
namespace {

/// Alert transitions kept for the ALERTS query (oldest dropped).
constexpr std::size_t kAlertHistory = 64;

// Global aggregates across every tenant (the per-tenant series are
// registered dynamically per Tenant when enabled).
obs::Counter& ingest_events() {
  static obs::Counter c = obs::counter("serve.ingest.events");
  return c;
}
obs::Counter& ingest_quarantined() {
  static obs::Counter c = obs::counter("serve.ingest.quarantined");
  return c;
}
obs::Counter& ingest_bad_rows() {
  static obs::Counter c = obs::counter("serve.ingest.bad_rows");
  return c;
}
obs::Counter& epoch_merges() {
  static obs::Counter c = obs::counter("serve.epoch.merges");
  return c;
}
obs::Counter& epoch_merged_records() {
  static obs::Counter c = obs::counter("serve.epoch.merged_records");
  return c;
}
obs::Histogram& epoch_merge_seconds() {
  static obs::Histogram h =
      obs::histogram("serve.epoch.merge_seconds", obs::time_buckets_seconds());
  return h;
}
obs::Counter& alerts_fired_total() {
  static obs::Counter c = obs::counter("serve.alerts.fired");
  return c;
}
obs::Counter& alerts_cleared_total() {
  static obs::Counter c = obs::counter("serve.alerts.cleared");
  return c;
}
obs::Counter& segments_written() {
  static obs::Counter c = obs::counter("serve.segments.written");
  return c;
}
obs::Counter& segments_mounted() {
  static obs::Counter c = obs::counter("serve.segments.mounted");
  return c;
}

/// "machine 'Tsubame-3' (540 nodes x 4 GPUs)": what a segment must match.
std::string describe(const data::MachineSpec& spec) {
  return "machine '" + spec.name + "' (" + std::to_string(spec.node_count) + " nodes x " +
         std::to_string(spec.gpus_per_node) + " GPUs)";
}

}  // namespace

std::optional<std::uint64_t> segment_epoch(const std::string& filename) {
  constexpr std::string_view kPrefix = "epoch-";
  constexpr std::string_view kSuffix = ".tsnap";
  if (filename.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (filename.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  if (filename.substr(filename.size() - kSuffix.size()) != kSuffix) return std::nullopt;
  const std::string_view digits = std::string_view(filename).substr(
      kPrefix.size(), filename.size() - kPrefix.size() - kSuffix.size());
  // Only what persist_segment writes: canonical decimal (no leading
  // zero), at least 1, within 64 bits.  Any other spelling of an epoch
  // would mount the same records twice.
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || end != digits.data() + digits.size() || digits.front() == '0')
    return std::nullopt;
  return value;
}

Result<std::vector<std::filesystem::path>> list_segments(const std::filesystem::path& dir) {
  std::map<std::uint64_t, std::filesystem::path> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (auto epoch = segment_epoch(entry.path().filename().string());
        epoch.has_value() && entry.is_regular_file())
      found.emplace(*epoch, entry.path());
  if (ec)
    return Error(ErrorKind::kIo, "cannot list segment directory " + dir.string() + ": " +
                                     ec.message());
  std::vector<std::filesystem::path> paths;
  for (auto& [epoch, path] : found) {
    // Seals write epochs 1..N without gaps, so a gap is a lost segment.
    if (epoch != paths.size() + 1)
      return Error(ErrorKind::kValidation, "segment epoch-" + std::to_string(paths.size() + 1) +
                                               ".tsnap is missing from " + dir.string());
    paths.push_back(std::move(path));
  }
  return paths;
}

Tenant::Tenant(std::string name, data::MachineSpec spec, const TenantConfig& config)
    : name_(std::move(name)), spec_(std::move(spec)), config_(config) {
  if (config_.per_tenant_metrics) {
    const std::string prefix = "serve.tenant." + name_ + ".";
    ingested_counter_ = obs::counter(prefix + "ingested");
    quarantined_counter_ = obs::counter(prefix + "quarantined");
    fired_counter_ = obs::counter(prefix + "alerts.fired");
    cleared_counter_ = obs::counter(prefix + "alerts.cleared");
    epoch_gauge_ = obs::gauge(prefix + "epoch");
    records_gauge_ = obs::gauge(prefix + "records");
    staleness_gauge_ = obs::gauge(prefix + "staleness");
  }
}

Result<std::unique_ptr<Tenant>> Tenant::open(std::string name, const data::MachineSpec& spec,
                                             const TenantConfig& config) {
  // '/' and '\\' are rejected because the name doubles as the segment
  // directory name under data_dir.
  if (name.empty() || name.find_first_of(" \t\r\n\x1f/\\") != std::string::npos)
    return Error(ErrorKind::kValidation,
                 "tenant name must be non-empty and contain no whitespace or path separators");
  auto events = stream::EventStream::create(spec, config.stream);
  if (!events.ok()) return events.error().with_context("tenant '" + name + "'");

  std::unique_ptr<Tenant> tenant(new Tenant(std::move(name), spec, config));
  tenant->events_.emplace(std::move(events).value());

  if (config.alerts) {
    auto monitor = stream::HealthMonitor::create(spec);
    if (!monitor.ok()) return monitor.error().with_context("tenant monitor");
    auto engine = stream::AlertEngine::create(
        stream::default_rules(spec, stream::paper_expected_failures(spec)));
    if (!engine.ok()) return engine.error().with_context("tenant alert engine");
    tenant->monitor_.emplace(std::move(monitor).value());
    tenant->engine_.emplace(std::move(engine).value());
  }

  tenant->snapshot_ = data::LogSnapshot::build(data::LogIndex(spec, data::RecordColumns()), 0);

  if (!config.data_dir.empty()) {
    auto restored = tenant->remount_segments();
    if (!restored.ok())
      return restored.error().with_context("remount tenant '" + tenant->name_ + "'");
  }
  const auto& current = tenant->snapshot_;
  if (tenant->epoch_gauge_.has_value())
    tenant->epoch_gauge_->set(static_cast<double>(current->epoch()));
  if (tenant->records_gauge_.has_value())
    tenant->records_gauge_->set(static_cast<double>(current->size()));
  return tenant;
}

Result<std::uint64_t> Tenant::remount_segments() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(config_.data_dir) / name_;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    return Error(ErrorKind::kIo, "cannot create segment directory " + dir.string() + ": " +
                                     ec.message());

  auto paths = list_segments(dir);
  if (!paths.ok()) return paths.error();
  if (paths.value().empty()) return 0;

  // A load checks every record but against the window, and times ascend
  // in each segment, so its first and last times settle the window (with
  // the tenant's slack) and the seam; the concatenation is one sorted log.
  const TimePoint earliest = spec_.log_start.plus_hours(-config_.stream.slack_hours);
  const TimePoint latest = spec_.log_end.plus_hours(config_.stream.slack_hours);
  std::int64_t last = earliest.seconds_since_epoch();
  std::vector<data::ColumnarSnapshotPtr> segments;
  std::vector<data::ColumnsView> views;
  for (const fs::path& path : paths.value()) {
    auto segment = data::ColumnarSnapshot::open(path.string());
    if (!segment.ok()) return segment.error();
    const data::MachineSpec& packed = segment.value()->spec();
    if (packed.machine != spec_.machine || packed.node_count != spec_.node_count ||
        packed.gpus_per_node != spec_.gpus_per_node)
      return Error(ErrorKind::kValidation,
                   "segment " + path.string() + " was packed for " + describe(packed) +
                       ", not the tenant's " + describe(spec_));
    const auto times = segment.value()->columns().times;
    if (!times.empty()) {
      const TimePoint front(times.front());
      const TimePoint back(times.back());
      if (front < earliest || back > latest)
        return Error(ErrorKind::kValidation,
                     "segment " + path.string() + " holds failure time " +
                         format_time(front < earliest ? front : back) + " outside the log window");
      if (times.front() < last)
        return Error(ErrorKind::kValidation, "segment " + path.string() +
                                                 " starts before the previous epoch's last record");
      last = times.back();
    }
    views.push_back(segment.value()->columns());
    segments.push_back(std::move(segment).value());
    segments_mounted().add();
  }
  snapshot_ = data::LogSnapshot::build(data::LogIndex(spec_, data::RecordColumns(views, {})),
                                       views.size());
  return snapshot_->epoch();
}

Result<void> Tenant::persist_segment(std::uint64_t epoch,
                                     std::span<const data::FailureRecord> suffix) const {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(config_.data_dir) / name_;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    return Error(ErrorKind::kIo, "cannot create segment directory " + dir.string() + ": " +
                                     ec.message());
  const fs::path path = dir / ("epoch-" + std::to_string(epoch) + ".tsnap");
  // Remount indexes the concatenation of every segment once.
  const std::string bytes = data::pack_columnar(spec_, suffix);
  auto written = data::write_columnar_file(path.string(), bytes);
  if (!written.ok()) return written.error();
  segments_written().add();
  return {};
}

Result<stream::IngestOutcome> Tenant::ingest_row(std::string_view row) {
  auto parsed = data::parse_record_row(row);
  if (!parsed.ok()) {
    std::lock_guard lock(ingest_mutex_);
    ++bad_rows_;
    ingest_bad_rows().add();
    if (quarantined_counter_.has_value()) quarantined_counter_->add();
    return parsed.error().with_context("ingest row");
  }
  if (parsed.value().first != spec_.machine) {
    std::lock_guard lock(ingest_mutex_);
    ++bad_rows_;
    ingest_bad_rows().add();
    if (quarantined_counter_.has_value()) quarantined_counter_->add();
    return Error(ErrorKind::kValidation,
                 "row machine '" + std::string(data::to_string(parsed.value().first)) +
                     "' does not match tenant machine '" +
                     std::string(data::to_string(spec_.machine)) + "'");
  }
  return ingest(parsed.value().second);
}

Result<stream::IngestOutcome> Tenant::ingest(const data::FailureRecord& record) {
  bool want_seal = false;
  Result<stream::IngestOutcome> outcome = [&]() -> Result<stream::IngestOutcome> {
    std::lock_guard lock(ingest_mutex_);
    auto offered = events_->offer(record);
    if (!offered.ok()) return offered;
    ingest_events().add();
    if (offered.value() == stream::IngestOutcome::kAccepted) {
      if (ingested_counter_.has_value()) ingested_counter_->add();
    } else {
      ingest_quarantined().add();
      if (quarantined_counter_.has_value()) quarantined_counter_->add();
    }
    consume_released();
    want_seal = config_.auto_epoch_events > 0 &&
                sealed_pending_.size() >= config_.auto_epoch_events;
    return offered;
  }();
  if (outcome.ok() && want_seal) {
    if (auto sealed = seal(); !sealed.ok()) return sealed.error();
  }
  return outcome;
}

void Tenant::consume_released() {
  while (auto record = events_->poll()) {
    if (monitor_.has_value()) {
      monitor_->observe(*record);
      for (auto& alert : engine_->evaluate(monitor_->snapshot())) {
        if (alert.raised) {
          ++alerts_fired_;
          alerts_fired_total().add();
          if (fired_counter_.has_value()) fired_counter_->add();
        } else {
          ++alerts_cleared_;
          alerts_cleared_total().add();
          if (cleared_counter_.has_value()) cleared_counter_->add();
        }
        alert_history_.push_back(std::move(alert));
        while (alert_history_.size() > kAlertHistory) alert_history_.pop_front();
      }
    }
    if (sealed_pending_.empty()) pending_since_ns_ = obs::now_ns();
    sealed_pending_.push_back(std::move(*record));
  }
}

Result<std::uint64_t> Tenant::seal() {
  std::lock_guard seal_lock(seal_mutex_);
  std::vector<data::FailureRecord> pending;
  {
    std::lock_guard lock(ingest_mutex_);
    pending.swap(sealed_pending_);
    pending_since_ns_ = 0;
  }
  data::SnapshotPtr base = snapshot();
  if (pending.empty()) return base->epoch();

  OBS_SPAN("serve.epoch.merge");
  obs::Stopwatch timer;
  // The sealed records are validated once, as the suffix that is both
  // indexed and persisted.  Released records always re-validate cleanly
  // in practice; if the seal ever refuses, the records are dropped and
  // the error surfaces to the caller rather than wedging the pipeline.
  auto suffix = data::FailureLog::create(spec_, std::move(pending), config_.stream.slack_hours);
  if (!suffix.ok()) return suffix.error().with_context("seal tenant '" + name_ + "'");
  auto merged = data::LogSnapshot::extend(*base, suffix.value());
  if (!merged.ok()) return merged.error().with_context("seal tenant '" + name_ + "'");
  const auto& snapshot = merged.value();
  if (!config_.data_dir.empty()) {
    // Persist before the swap so a crash can only lose the newest epoch,
    // never publish one that is missing from disk.
    auto persisted = persist_segment(snapshot->epoch(), suffix.value().records());
    if (!persisted.ok()) return persisted.error().with_context("persist epoch segment");
  }
  epoch_merges().add();
  epoch_merged_records().add(suffix.value().size());
  epoch_merge_seconds().observe(static_cast<double>(timer.elapsed_ns()) * 1e-9);
  {
    std::lock_guard lock(snapshot_mutex_);
    snapshot_ = snapshot;
  }
  if (epoch_gauge_.has_value()) epoch_gauge_->set(static_cast<double>(snapshot->epoch()));
  if (records_gauge_.has_value()) records_gauge_->set(static_cast<double>(snapshot->size()));
  if (epoch_callback_) epoch_callback_(name_, snapshot->epoch());
  return snapshot->epoch();
}

data::SnapshotPtr Tenant::snapshot() const {
  std::lock_guard lock(snapshot_mutex_);
  return snapshot_;
}

TenantStats Tenant::stats() const {
  TenantStats out;
  {
    std::lock_guard lock(ingest_mutex_);
    out.stream = events_->stats();
    out.sealed_pending = sealed_pending_.size();
    out.bad_rows = bad_rows_;
    out.alerts_fired = alerts_fired_;
    out.alerts_cleared = alerts_cleared_;
    if (!sealed_pending_.empty() && pending_since_ns_ != 0)
      out.staleness_seconds =
          static_cast<double>(obs::now_ns() - pending_since_ns_) * 1e-9;
  }
  if (staleness_gauge_.has_value()) staleness_gauge_->set(out.staleness_seconds);
  data::SnapshotPtr current = snapshot();
  out.epoch = current->epoch();
  out.records = current->size();
  return out;
}

std::vector<stream::Alert> Tenant::recent_alerts() const {
  std::lock_guard lock(ingest_mutex_);
  return {alert_history_.begin(), alert_history_.end()};
}

}  // namespace tsufail::serve
