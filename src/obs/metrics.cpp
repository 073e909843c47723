#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "obs/trace.h"
#include "util/strings.h"

namespace tsufail::obs {
namespace {

/// Relaxed add on an atomic double (shards are single-writer, so the CAS
/// loop converges immediately; it only guards against torn reads from a
/// concurrent snapshot).
void atomic_add(std::atomic<double>& cell, double delta) noexcept {
  double seen = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(seen, seen + delta, std::memory_order_relaxed)) {
  }
}

struct HistogramSpec {
  std::string name;
  std::vector<double> bounds;
  ExemplarMode exemplar_mode = ExemplarMode::kNone;
};

/// The exemplar window generation (see exemplar_window() in the header).
/// Starts at 1 so window 0 can mean "cell never written".
std::atomic<std::uint64_t> g_exemplar_window{1};

/// One bucket's exemplar slot: a seqlock over all-atomic fields.  Single
/// writer (the shard's owning thread); snapshot readers retry while the
/// version is odd or changes under them.  All fields are atomics so a
/// lost retry race is stale data, never UB or a TSan report.
struct ExemplarCell {
  std::atomic<std::uint64_t> version{0};  ///< even = stable, odd = write in flight
  std::atomic<double> value{0.0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> window{0};   ///< 0 = empty
};

/// Writer side of the seqlock (Boehm's seqlock-with-fences shape).
void exemplar_store(ExemplarCell& cell, double value, std::uint64_t trace_id,
                    std::uint64_t window) noexcept {
  const std::uint64_t v = cell.version.load(std::memory_order_relaxed);
  cell.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  cell.value.store(value, std::memory_order_relaxed);
  cell.trace_id.store(trace_id, std::memory_order_relaxed);
  cell.window.store(window, std::memory_order_relaxed);
  cell.version.store(v + 2, std::memory_order_release);
}

/// Reader side: returns false when the cell is empty or stayed unstable
/// across the retry budget (a writer storm; the exemplar is best-effort).
bool exemplar_read(const ExemplarCell& cell, HistogramValue::Exemplar& out) noexcept {
  for (int attempt = 0; attempt < 100; ++attempt) {
    const std::uint64_t v1 = cell.version.load(std::memory_order_acquire);
    if (v1 & 1) continue;
    const double value = cell.value.load(std::memory_order_relaxed);
    const std::uint64_t trace_id = cell.trace_id.load(std::memory_order_relaxed);
    const std::uint64_t window = cell.window.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (cell.version.load(std::memory_order_relaxed) != v1) continue;
    if (window == 0) return false;
    out.value = value;
    out.trace_id = trace_id;
    out.window = window;
    return true;
  }
  return false;
}

/// Per-thread cells for one histogram: bounds.size() + 1 buckets, plus
/// the running count/sum.  `spec` points at the registry's
/// stable-address spec, so the hot path never takes the registry lock.
struct HistogramCells {
  explicit HistogramCells(const HistogramSpec* histogram_spec)
      : spec(histogram_spec), counts(histogram_spec->bounds.size() + 1) {
    if (spec->exemplar_mode != ExemplarMode::kNone)
      exemplars = std::make_unique<ExemplarCell[]>(spec->bounds.size() + 1);
  }
  const HistogramSpec* spec;
  std::deque<std::atomic<std::uint64_t>> counts;
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::unique_ptr<ExemplarCell[]> exemplars;  ///< null unless exemplars enabled
};

/// One thread's slice of every counter/histogram.  Single writer (the
/// owning thread); the mutex serializes growth against snapshot/reset
/// readers — plain adds go lock-free on the atomics.
struct Shard {
  std::mutex mutex;
  std::deque<std::atomic<std::uint64_t>> counters;
  std::deque<std::unique_ptr<HistogramCells>> histograms;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::string> counter_names;
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::vector<std::string> gauge_names;
  std::unordered_map<std::string, std::uint32_t> gauge_ids;
  // Gauges are global (last write wins), not sharded: merging per-thread
  // last-writes would need timestamps for no benefit.
  std::deque<std::atomic<double>> gauge_values;
  std::deque<std::atomic<bool>> gauge_set;
  // unique_ptr: HistogramCells caches a pointer to the bounds vector, so
  // spec addresses must survive later registrations.
  std::vector<std::unique_ptr<HistogramSpec>> histogram_specs;
  std::unordered_map<std::string, std::uint32_t> histogram_ids;
  std::vector<std::shared_ptr<Shard>> shards;
};

// Leaked on purpose: metric handles may fire from detached threads
// during shutdown, and a destructed registry would turn them into UB.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

Shard& local_shard() {
  thread_local Shard* shard = [] {
    auto owned = std::make_shared<Shard>();
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    r.shards.push_back(owned);
    return owned.get();
  }();
  return *shard;
}

/// Grows `cells` under the shard lock until `id` is addressable.
void ensure_counter(Shard& shard, std::uint32_t id) {
  std::lock_guard lock(shard.mutex);
  while (shard.counters.size() <= id) shard.counters.emplace_back(0);
}

void ensure_histogram(Shard& shard, std::uint32_t id) {
  const HistogramSpec* spec = nullptr;
  {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    spec = r.histogram_specs[id].get();
  }
  std::lock_guard lock(shard.mutex);
  while (shard.histograms.size() <= id) shard.histograms.push_back(nullptr);
  if (shard.histograms[id] == nullptr)
    shard.histograms[id] = std::make_unique<HistogramCells>(spec);
}

void append_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
  out += buffer;
}

/// tsufail metric names are dot-separated; Prometheus wants [a-zA-Z0-9_:].
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

namespace detail {

void counter_add(std::uint32_t id, std::uint64_t n) noexcept {
  Shard& shard = local_shard();
  if (shard.counters.size() <= id) ensure_counter(shard, id);
  shard.counters[id].fetch_add(n, std::memory_order_relaxed);
}

void gauge_set(std::uint32_t id, double value) noexcept {
  Registry& r = registry();
  // Gauge ids are handed out only after the deques grew (under the
  // registry lock), so this indexing never races with growth.
  r.gauge_values[id].store(value, std::memory_order_relaxed);
  r.gauge_set[id].store(true, std::memory_order_relaxed);
}

void histogram_observe(std::uint32_t id, double value) noexcept {
  Shard& shard = local_shard();
  if (shard.histograms.size() <= id || shard.histograms[id] == nullptr)
    ensure_histogram(shard, id);
  HistogramCells& cells = *shard.histograms[id];
  const std::vector<double>& bounds = cells.spec->bounds;
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  cells.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  cells.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(cells.sum, value);
  if (cells.exemplars != nullptr) {
    // Capture the slowest observation per bucket per window.  This
    // thread is the cell's only writer, so the relaxed pre-reads are
    // exact; the seqlock only protects snapshot readers.
    ExemplarCell& cell = cells.exemplars[bucket];
    const std::uint64_t window = g_exemplar_window.load(std::memory_order_relaxed);
    if (cell.window.load(std::memory_order_relaxed) != window ||
        value > cell.value.load(std::memory_order_relaxed))
      exemplar_store(cell, value, current_trace_id(), window);
  }
}

}  // namespace detail

Counter counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  auto [it, inserted] = r.counter_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(r.counter_names.size()));
  if (inserted) r.counter_names.emplace_back(name);
  return Counter(it->second);
}

Gauge gauge(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  auto [it, inserted] = r.gauge_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(r.gauge_names.size()));
  if (inserted) {
    r.gauge_names.emplace_back(name);
    r.gauge_values.emplace_back(0.0);
    r.gauge_set.emplace_back(false);
  }
  return Gauge(it->second);
}

Histogram histogram(std::string_view name, std::span<const double> bounds, ExemplarMode mode) {
  TSUFAIL_REQUIRE(!bounds.empty(), "obs::histogram: empty bucket bounds");
  TSUFAIL_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()) &&
                      std::adjacent_find(bounds.begin(), bounds.end()) == bounds.end(),
                  "obs::histogram: bounds must be strictly increasing");
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  auto [it, inserted] = r.histogram_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(r.histogram_specs.size()));
  if (inserted) {
    r.histogram_specs.push_back(std::make_unique<HistogramSpec>(
        HistogramSpec{std::string(name), {bounds.begin(), bounds.end()}, mode}));
  }
  return Histogram(it->second);
}

std::uint64_t exemplar_window() noexcept {
  return g_exemplar_window.load(std::memory_order_relaxed);
}

std::uint64_t advance_exemplar_window() noexcept {
  return g_exemplar_window.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::span<const double> time_buckets_seconds() noexcept {
  static constexpr std::array<double, 9> kBuckets = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                                     0.1,  1.0,  10.0, 100.0};
  return kBuckets;
}

std::uint64_t HistogramValue::cumulative(std::size_t i) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < counts.size(); ++b) total += counts[b];
  return total;
}

const HistogramValue::Exemplar* HistogramValue::find_exemplar(std::size_t bucket) const noexcept {
  for (const auto& exemplar : exemplars) {
    if (exemplar.bucket == bucket) return &exemplar;
  }
  return nullptr;
}

double histogram_quantile(const HistogramValue& histogram, double q) {
  if (histogram.count == 0 || histogram.bounds.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(histogram.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < histogram.counts.size(); ++b) {
    const std::uint64_t next = cumulative + histogram.counts[b];
    if (static_cast<double>(next) >= rank && histogram.counts[b] > 0) {
      if (b >= histogram.bounds.size()) return histogram.bounds.back();  // +Inf bucket
      const double lower = b == 0 ? 0.0 : histogram.bounds[b - 1];
      const double upper = histogram.bounds[b];
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(histogram.counts[b]);
      return lower + (upper - lower) * within;
    }
    cumulative = next;
  }
  return histogram.bounds.back();
}

const CounterValue* MetricsSnapshot::find_counter(std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeValue* MetricsSnapshot::find_gauge(std::string_view name) const noexcept {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramValue* MetricsSnapshot::find_histogram(std::string_view name) const noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsSnapshot collect_metrics() {
  Registry& r = registry();
  std::lock_guard registry_lock(r.mutex);

  MetricsSnapshot snapshot;
  snapshot.counters.reserve(r.counter_names.size());
  for (const auto& name : r.counter_names) snapshot.counters.push_back({name, 0});
  for (std::size_t g = 0; g < r.gauge_names.size(); ++g) {
    if (r.gauge_set[g].load(std::memory_order_relaxed))
      snapshot.gauges.push_back({r.gauge_names[g], r.gauge_values[g].load(std::memory_order_relaxed)});
  }
  snapshot.histograms.reserve(r.histogram_specs.size());
  for (const auto& spec : r.histogram_specs) {
    HistogramValue value;
    value.name = spec->name;
    value.bounds = spec->bounds;
    value.counts.assign(spec->bounds.size() + 1, 0);
    snapshot.histograms.push_back(std::move(value));
  }

  for (const auto& shard : r.shards) {
    std::lock_guard shard_lock(shard->mutex);
    for (std::size_t c = 0; c < shard->counters.size() && c < snapshot.counters.size(); ++c)
      snapshot.counters[c].value += shard->counters[c].load(std::memory_order_relaxed);
    for (std::size_t h = 0; h < shard->histograms.size() && h < snapshot.histograms.size(); ++h) {
      if (shard->histograms[h] == nullptr) continue;
      const HistogramCells& cells = *shard->histograms[h];
      HistogramValue& merged = snapshot.histograms[h];
      for (std::size_t b = 0; b < merged.counts.size() && b < cells.counts.size(); ++b)
        merged.counts[b] += cells.counts[b].load(std::memory_order_relaxed);
      merged.count += cells.count.load(std::memory_order_relaxed);
      merged.sum += cells.sum.load(std::memory_order_relaxed);
      if (cells.exemplars != nullptr) {
        // Keep the winning exemplar per bucket across shards: freshest
        // window first, then slowest value.
        for (std::size_t b = 0; b < merged.counts.size(); ++b) {
          HistogramValue::Exemplar candidate;
          if (!exemplar_read(cells.exemplars[b], candidate)) continue;
          candidate.bucket = b;
          auto existing = std::find_if(
              merged.exemplars.begin(), merged.exemplars.end(),
              [b](const HistogramValue::Exemplar& e) { return e.bucket == b; });
          if (existing == merged.exemplars.end()) {
            merged.exemplars.push_back(candidate);
          } else if (candidate.window > existing->window ||
                     (candidate.window == existing->window &&
                      candidate.value > existing->value)) {
            *existing = candidate;
          }
        }
      }
    }
  }
  for (auto& h : snapshot.histograms) {
    std::sort(h.exemplars.begin(), h.exemplars.end(),
              [](const HistogramValue::Exemplar& a, const HistogramValue::Exemplar& b) {
                return a.bucket < b.bucket;
              });
  }

  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

void reset_metrics() {
  Registry& r = registry();
  std::lock_guard registry_lock(r.mutex);
  for (std::size_t g = 0; g < r.gauge_names.size(); ++g) {
    r.gauge_set[g].store(false, std::memory_order_relaxed);
    r.gauge_values[g].store(0.0, std::memory_order_relaxed);
  }
  for (const auto& shard : r.shards) {
    std::lock_guard shard_lock(shard->mutex);
    for (auto& cell : shard->counters) cell.store(0, std::memory_order_relaxed);
    for (auto& cells : shard->histograms) {
      if (cells == nullptr) continue;
      for (auto& bucket : cells->counts) bucket.store(0, std::memory_order_relaxed);
      cells->count.store(0, std::memory_order_relaxed);
      cells->sum.store(0.0, std::memory_order_relaxed);
      if (cells->exemplars != nullptr) {
        // window = 0 marks the cell empty; readers skip it.  A reset
        // racing an active writer loses to the writer's next store,
        // which is the semantics a reset wants anyway.
        for (std::size_t b = 0; b < cells->counts.size(); ++b)
          cells->exemplars[b].window.store(0, std::memory_order_relaxed);
      }
    }
  }
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::string json = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    json += i == 0 ? "\n    " : ",\n    ";
    append_json_string(json, snapshot.counters[i].name);
    json += ": ";
    append_u64(json, snapshot.counters[i].value);
  }
  json += "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    json += i == 0 ? "\n    " : ",\n    ";
    append_json_string(json, snapshot.gauges[i].name);
    json += ": ";
    append_double(json, snapshot.gauges[i].value);
  }
  json += "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramValue& h = snapshot.histograms[i];
    json += i == 0 ? "\n    " : ",\n    ";
    append_json_string(json, h.name);
    json += ": {\"count\": ";
    append_u64(json, h.count);
    json += ", \"sum\": ";
    append_double(json, h.sum);
    json += ", \"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b != 0) json += ", ";
      append_double(json, h.bounds[b]);
    }
    json += "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) json += ", ";
      append_u64(json, h.counts[b]);
    }
    json += "]";
    if (!h.exemplars.empty()) {
      json += ", \"exemplars\": [";
      for (std::size_t e = 0; e < h.exemplars.size(); ++e) {
        const HistogramValue::Exemplar& exemplar = h.exemplars[e];
        if (e != 0) json += ", ";
        json += "{\"bucket\": ";
        append_u64(json, exemplar.bucket);
        json += ", \"value\": ";
        append_double(json, exemplar.value);
        json += ", \"trace_id\": ";
        append_json_string(json, trace_id_hex(exemplar.trace_id));
        json += ", \"window\": ";
        append_u64(json, exemplar.window);
        json += "}";
      }
      json += "]";
    }
    json += "}";
  }
  json += "\n  }\n}\n";
  return json;
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = prometheus_name(c.name);
    out += "# HELP " + name + " tsufail counter " + c.name + "\n";
    out += "# TYPE " + name + " counter\n";
    out += name + " ";
    append_u64(out, c.value);
    out += "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prometheus_name(g.name);
    out += "# HELP " + name + " tsufail gauge " + g.name + "\n";
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    append_double(out, g.value);
    out += "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prometheus_name(h.name);
    out += "# HELP " + name + " tsufail histogram " + h.name + "\n";
    out += "# TYPE " + name + " histogram\n";
    const auto append_exemplar = [&](std::size_t bucket) {
      const HistogramValue::Exemplar* exemplar = h.find_exemplar(bucket);
      if (exemplar == nullptr) return;
      out += " # {trace_id=\"" + trace_id_hex(exemplar->trace_id) + "\"} ";
      append_double(out, exemplar->value);
    };
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      out += name + "_bucket{le=\"";
      append_double(out, h.bounds[b]);
      out += "\"} ";
      append_u64(out, h.cumulative(b));
      append_exemplar(b);
      out += "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} ";
    append_u64(out, h.count);
    append_exemplar(h.bounds.size());
    out += "\n" + name + "_sum ";
    append_double(out, h.sum);
    out += "\n" + name + "_count ";
    append_u64(out, h.count);
    out += "\n";
  }
  return out;
}

namespace {

struct PrometheusRead {
  PrometheusCheck check;
  MetricsSnapshot snapshot;
};

/// One walk over a Prometheus exposition: validates every line (the rules
/// PrometheusCheck documents) and rebuilds the snapshot it encodes.
Result<PrometheusRead> read_prometheus_text(std::string_view text) {
  PrometheusRead read;
  PrometheusCheck& check = read.check;
  MetricsSnapshot& snapshot = read.snapshot;
  // name -> declared type; histogram series must resolve through their
  // _bucket/_sum/_count suffixes.
  std::unordered_map<std::string, std::string> types;
  std::unordered_map<std::string, std::size_t> histogram_slot;  ///< family -> snapshot index
  std::size_t line_number = 0;
  std::size_t position = 0;
  while (position < text.size()) {
    std::size_t end = text.find('\n', position);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(position, end - position);
    position = end + 1;
    ++line_number;
    const auto fail = [&](const std::string& why) {
      return Error(ErrorKind::kValidation,
                   "prometheus line " + std::to_string(line_number) + ": " + why);
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::vector<std::string_view> parts = split(line, ' ');
      if (parts.size() >= 4 && parts[1] == "TYPE") {
        const std::string family(parts[2]);
        const std::string type(parts[3]);
        if (type != "counter" && type != "gauge" && type != "histogram")
          return fail("unknown TYPE '" + type + "'");
        if (types.contains(family)) return fail("duplicate TYPE for " + family);
        types[family] = type;
        ++check.families;
      }
      continue;
    }
    // Sample line: name[{labels}] value [# {exemplar-labels} exemplar-value]
    std::string_view sample = line;
    std::string_view exemplar_text;
    if (const std::size_t hash = line.find(" # "); hash != std::string_view::npos) {
      sample = line.substr(0, hash);
      exemplar_text = line.substr(hash + 3);
    }
    const std::size_t space = sample.rfind(' ');
    if (space == std::string_view::npos || space + 1 >= sample.size())
      return fail("sample line has no value");
    const std::string value_text(sample.substr(space + 1));
    auto parsed_value = parse_double(value_text);
    if (!parsed_value.ok()) return fail("unparseable value '" + value_text + "'");
    const double value = parsed_value.value();
    std::string series(sample.substr(0, space));
    std::string labels;
    if (const std::size_t brace = series.find('{'); brace != std::string::npos) {
      if (series.back() != '}') return fail("unterminated label set");
      labels = series.substr(brace + 1, series.size() - brace - 2);
      series.resize(brace);
    }
    std::string family = series;
    std::string_view suffix;
    for (const std::string_view candidate : {"_bucket", "_sum", "_count"}) {
      if (family.size() > candidate.size() && family.ends_with(candidate)) {
        const std::string base = family.substr(0, family.size() - candidate.size());
        if (const auto it = types.find(base); it != types.end() && it->second == "histogram") {
          family = base;
          suffix = candidate;
          break;
        }
      }
    }
    const auto type = types.find(family);
    if (type == types.end()) return fail("series '" + series + "' has no TYPE declaration");
    // Counters, buckets and _count are stored as uint64_t; a value outside
    // [0, 2^64) (NaN and infinities included) has no such representation.
    const bool is_count = type->second == "counter" || suffix == "_bucket" || suffix == "_count";
    if (is_count && !(value >= 0.0 && value < 0x1p64))
      return fail("count '" + value_text + "' of '" + series + "' is outside [0, 2^64)");
    if (type->second == "counter") {
      snapshot.counters.push_back({series, static_cast<std::uint64_t>(value)});
    } else if (type->second == "gauge") {
      snapshot.gauges.push_back({series, value});
    } else if (suffix.empty()) {
      return Error(ErrorKind::kParse, "prometheus parse: unclassifiable series '" + series + "'");
    }
    HistogramValue* h = nullptr;
    if (!suffix.empty()) {
      auto [slot, inserted] = histogram_slot.try_emplace(family, snapshot.histograms.size());
      if (inserted) snapshot.histograms.emplace_back().name = family;
      h = &snapshot.histograms[slot->second];
    }
    if (suffix == "_sum") h->sum = value;
    if (suffix == "_count") h->count = static_cast<std::uint64_t>(value);
    if (suffix == "_bucket") {
      // Exposition order gives buckets ascending, so the cumulative counts
      // un-difference in one pass.
      const std::size_t le = labels.find("le=\"");
      if (le == std::string::npos) return fail("histogram bucket without le label");
      const auto total = static_cast<std::uint64_t>(value);
      const std::uint64_t previous =
          std::accumulate(h->counts.begin(), h->counts.end(), std::uint64_t{0});
      if (total < previous) return fail("bucket counts for " + family + " not cumulative");
      h->counts.push_back(total - previous);
      const std::string bound = labels.substr(le + 4, labels.find('"', le + 4) - le - 4);
      if (bound != "+Inf") {
        auto parsed_bound = parse_double(bound);
        if (!parsed_bound.ok())
          return Error(ErrorKind::kParse,
                       "prometheus parse: bad le bound '" + bound + "' for " + family);
        h->bounds.push_back(parsed_bound.value());
      }
    }
    if (!exemplar_text.empty()) {
      // OpenMetrics-style: `# {trace_id="<hex>"} <value>` — bucket
      // series only.
      if (suffix != "_bucket") return fail("exemplar on non-bucket series '" + series + "'");
      if (exemplar_text.front() != '{') return fail("exemplar missing label set");
      const std::size_t close = exemplar_text.find('}');
      if (close == std::string_view::npos) return fail("unterminated exemplar label set");
      const std::string_view exemplar_labels = exemplar_text.substr(1, close - 1);
      const std::string exemplar_value(
          close + 2 <= exemplar_text.size() ? exemplar_text.substr(close + 2) : std::string_view{});
      auto parsed_exemplar = parse_double(exemplar_value);
      if (!parsed_exemplar.ok())
        return fail("unparseable exemplar value '" + exemplar_value + "'");
      HistogramValue::Exemplar exemplar;
      exemplar.bucket = h->counts.size() - 1;
      exemplar.value = parsed_exemplar.value();
      for (std::string_view label : split(exemplar_labels, ',')) {
        if (label.empty()) continue;
        const std::size_t equals = label.find("=\"");
        if (equals == std::string_view::npos || label.back() != '"')
          return fail("malformed exemplar label '" + std::string(label) + "'");
        if (label.substr(0, equals) == "trace_id") {
          const std::string_view id = label.substr(equals + 2, label.size() - equals - 3);
          if (id.empty()) return fail("empty exemplar trace_id");
          for (char c : id) {
            if (!std::isxdigit(static_cast<unsigned char>(c)))
              return fail("exemplar trace_id '" + std::string(id) + "' is not hex");
          }
          if (id.size() > 16)
            return fail("exemplar trace_id '" + std::string(id) + "' is longer than 16 hex digits");
          std::from_chars(id.data(), id.data() + id.size(), exemplar.trace_id, 16);
          check.exemplar_trace_ids.emplace_back(id);
        }
      }
      h->exemplars.push_back(exemplar);
      ++check.exemplars;
    }
    if (prometheus_name(family) != family)
      return fail("invalid character in metric name '" + family + "'");
    ++check.samples;
  }
  if (check.families == 0)
    return Error(ErrorKind::kValidation, "prometheus text has no TYPE declarations");
  std::sort(check.exemplar_trace_ids.begin(), check.exemplar_trace_ids.end());
  check.exemplar_trace_ids.erase(
      std::unique(check.exemplar_trace_ids.begin(), check.exemplar_trace_ids.end()),
      check.exemplar_trace_ids.end());
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return read;
}

}  // namespace

Result<PrometheusCheck> check_prometheus_text(std::string_view text) {
  auto read = read_prometheus_text(text);
  if (!read.ok()) return read.error();
  return std::move(read.value().check);
}

Result<MetricsSnapshot> parse_prometheus_text(std::string_view text) {
  auto read = read_prometheus_text(text);
  if (!read.ok()) return read.error();
  return std::move(read.value().snapshot);
}

}  // namespace tsufail::obs
