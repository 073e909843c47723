#include "data/log_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "data/columnar.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "stats/kernels.h"

namespace tsufail::data {

/// What an index owns.  The record columns stay empty when they are
/// adopted from `snapshot`; the derived arrays are always built here.
struct LogIndex::Storage {
  std::vector<double> ttr;
  std::vector<std::uint8_t> categories;
  std::vector<std::uint32_t> slot_offsets;
  std::vector<std::int32_t> slot_data;
  std::vector<std::uint32_t> locus_offsets;
  std::string locus_data;
  std::shared_ptr<const ColumnarSnapshot> snapshot;

  std::vector<double> hours;
  std::vector<std::uint32_t> arena;
  std::vector<NodeGroup> node_groups;
};

LogIndex::LogIndex(const FailureLog& log) : spec_(log.spec()) {
  OBS_SPAN("index.build");
  static obs::Counter builds = obs::counter("index.builds");
  builds.add();
  index_records(nullptr, log.records());
}

LogIndex::LogIndex(std::shared_ptr<const ColumnarSnapshot> snapshot) {
  TSUFAIL_REQUIRE(snapshot != nullptr, "LogIndex: null snapshot");
  OBS_SPAN("index.adopt");
  static obs::Counter adopts = obs::counter("index.adopts");
  adopts.add();
  // Zero-copy: the record columns are the snapshot's own (checksummed,
  // structurally validated) sections.
  spec_ = snapshot->spec();
  ttr_ = snapshot->ttr();
  category_bytes_ = snapshot->categories();
  slot_offsets_ = snapshot->slot_offsets();
  slot_data_ = snapshot->slot_data();
  locus_offsets_ = snapshot->locus_offsets();
  locus_data_ = snapshot->locus_data();
  auto storage = std::make_shared<Storage>();
  derive(nullptr, snapshot->times(), snapshot->nodes(), *storage);
  storage->snapshot = std::move(snapshot);
  storage_ = std::move(storage);
}

LogIndex LogIndex::extend(const LogIndex& base, const FailureLog& suffix) {
  TSUFAIL_REQUIRE(suffix.spec().machine == base.spec().machine &&
                      suffix.spec().node_count == base.spec().node_count,
                  "LogIndex::extend: base and suffix disagree on the machine spec");
  TSUFAIL_REQUIRE(base.empty() || suffix.empty() ||
                      hours_between(base.spec().log_start, suffix.records().front().time) >=
                          base.hours_.back(),
                  "LogIndex::extend: suffix record predates the base's last record");
  OBS_SPAN("index.merge");
  static obs::Counter merges = obs::counter("index.merges");
  merges.add();
  LogIndex index(base.spec());
  index.index_records(&base, suffix.records());
  return index;
}

void LogIndex::index_records(const LogIndex* base, std::span<const FailureRecord> records) {
  const std::size_t from = base == nullptr ? 0 : base->size();
  const std::size_t n = from + records.size();
  auto storage = std::make_shared<Storage>();
  Storage& s = *storage;
  s.ttr.reserve(n);
  s.categories.reserve(n);
  s.slot_offsets.reserve(n + 1);
  s.locus_offsets.reserve(n + 1);
  if (base != nullptr) {
    // The prefix's columns are position-for-position the base's.
    s.ttr.assign(base->ttr_.begin(), base->ttr_.end());
    s.categories.assign(base->category_bytes_.begin(), base->category_bytes_.end());
    s.slot_offsets.assign(base->slot_offsets_.begin(), base->slot_offsets_.end());
    s.slot_data.assign(base->slot_data_.begin(), base->slot_data_.end());
    s.locus_offsets.assign(base->locus_offsets_.begin(), base->locus_offsets_.end());
    s.locus_data.assign(base->locus_data_);
  } else {
    s.slot_offsets.push_back(0);
    s.locus_offsets.push_back(0);
  }
  // Times and nodes feed only the derivation, so they are not kept.
  std::vector<std::int64_t> times(records.size());
  std::vector<std::int32_t> nodes(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FailureRecord& record = records[i];
    times[i] = record.time.seconds_since_epoch();
    nodes[i] = record.node;
    s.ttr.push_back(record.ttr_hours);
    s.categories.push_back(static_cast<std::uint8_t>(record.category));
    s.slot_data.insert(s.slot_data.end(), record.gpu_slots.begin(), record.gpu_slots.end());
    s.slot_offsets.push_back(static_cast<std::uint32_t>(s.slot_data.size()));
    s.locus_data.append(record.root_locus);
    s.locus_offsets.push_back(static_cast<std::uint32_t>(s.locus_data.size()));
  }
  ttr_ = s.ttr;
  category_bytes_ = s.categories;
  slot_offsets_ = s.slot_offsets;
  slot_data_ = s.slot_data;
  locus_offsets_ = s.locus_offsets;
  locus_data_ = s.locus_data;
  derive(base, times, nodes, s);
  storage_ = std::move(storage);
}

void LogIndex::derive(const LogIndex* base, std::span<const std::int64_t> times,
                      std::span<const std::int32_t> nodes, Storage& storage) {
  static obs::Counter indexed = obs::counter("index.records");
  const std::size_t from = base == nullptr ? 0 : base->size();
  const std::size_t n = from + times.size();
  indexed.add(n - from);

  std::vector<double>& hours = storage.hours;
  std::vector<std::uint32_t>& arena = storage.arena;
  std::vector<NodeGroup>& node_groups = storage.node_groups;
  hours.reserve(n);
  // The prefix's hours are position-for-position what a batch build
  // would recompute, so copy instead of recompute.
  if (base != nullptr) hours.assign(base->hours_.begin(), base->hours_.end());

  // Each category's class and GPU flag, looked up once instead of per record.
  std::array<std::uint8_t, kCategories> class_of{};
  std::array<bool, kCategories> gpu_related{};
  for (std::size_t c = 0; c < kCategories; ++c) {
    class_of[c] = static_cast<std::uint8_t>(classify(static_cast<Category>(c)));
    gpu_related[c] = is_gpu_related(static_cast<Category>(c));
  }
  // GPU-attributed: a GPU-related record naming >= 1 slot; multi-GPU: >= 2.
  const auto slot_count = [this](std::size_t i) {
    return slot_offsets_[i + 1] - slot_offsets_[i];
  };
  // The calendar month (0-11) of a time.  Times ascend, so the seconds of
  // the last month seen, [month_start, month_end), answer almost every
  // call and the calendar conversion runs about once per month.
  std::int64_t month_start = 0;
  std::int64_t month_end = 0;
  std::uint8_t month = 0;
  const auto month_of = [&](std::int64_t time) {
    if (time < month_start || time >= month_end) {
      const CivilDateTime civil = TimePoint(time).to_civil();
      month = static_cast<std::uint8_t>(civil.month - 1);
      month_start = days_from_civil(civil.year, civil.month, 1) * 86400;
      month_end = month_start + std::int64_t{86400} * days_in_month(civil.year, civil.month);
    }
    return month;
  };

  obs::SpanScope pass1("index.count");
  // Pass 1 over the new records only: hours and group sizes.
  std::array<std::uint32_t, kCategories> category_sizes{};
  std::array<std::uint32_t, kClasses> class_sizes{};
  std::array<std::uint32_t, 12> month_sizes{};
  std::uint32_t gpu_size = 0;
  std::uint32_t multi_size = 0;
  // Node ids are validated to [0, node_count), so dense counters beat a
  // map: two O(log nodes) lookups per record would otherwise dominate the
  // whole build.  After the layout below each entry holds the node's
  // group index instead.
  std::vector<std::uint32_t> node_sizes(static_cast<std::size_t>(spec_.node_count), 0);
  for (std::size_t i = from; i < n; ++i) {
    const std::uint8_t category = category_bytes_[i];
    hours.push_back(hours_between(spec_.log_start, TimePoint(times[i - from])));
    ++category_sizes[category];
    ++class_sizes[class_of[category]];
    ++month_sizes[month_of(times[i - from])];
    ++node_sizes[static_cast<std::size_t>(nodes[i - from])];
    if (gpu_related[category] && slot_count(i) > 0) {
      ++gpu_size;
      if (slot_count(i) > 1) ++multi_size;
    }
  }
  // Fold the base group sizes in, so the layout below sees totals.
  if (base != nullptr) {
    for (std::size_t c = 0; c < kCategories; ++c)
      category_sizes[c] += base->categories_[c].count;
    for (std::size_t c = 0; c < kClasses; ++c) class_sizes[c] += base->classes_[c].count;
    for (std::size_t m = 0; m < 12; ++m) month_sizes[m] += base->months_[m].count;
    gpu_size += base->gpu_attributed_.count;
    multi_size += base->multi_gpu_.count;
    for (const NodeGroup& group : base->node_groups_)
      node_sizes[static_cast<std::size_t>(group.node)] += group.count;
  }
  pass1.stop();

  obs::SpanScope pass2("index.fill");
  // Lay the groups out back-to-back in one arena, in the canonical order:
  // categories, classes, months, gpu-attributed, multi-GPU, nodes.
  std::uint32_t offset = 0;
  const auto reserve_range = [&offset](Range& range, std::uint32_t size) {
    range.begin = offset;
    range.count = 0;  // used as a write cursor in pass 2
    offset += size;
  };
  for (std::size_t c = 0; c < kCategories; ++c) reserve_range(categories_[c], category_sizes[c]);
  for (std::size_t c = 0; c < kClasses; ++c) reserve_range(classes_[c], class_sizes[c]);
  for (std::size_t m = 0; m < 12; ++m) reserve_range(months_[m], month_sizes[m]);
  reserve_range(gpu_attributed_, gpu_size);
  reserve_range(multi_gpu_, multi_size);
  node_groups.reserve(std::min(n, node_sizes.size()));
  for (std::size_t node = 0; node < node_sizes.size(); ++node) {  // ascending node id
    if (node_sizes[node] == 0) continue;
    node_groups.push_back({static_cast<int>(node), offset, 0});
    offset += node_sizes[node];
    node_sizes[node] = static_cast<std::uint32_t>(node_groups.size() - 1);
  }
  const auto& group_of_node = node_sizes;
  arena.resize(offset);

  // Seed each span with the base's contents: prefix positions are
  // unchanged by an append, and every span fills in time order, so the
  // base entries are exactly the first base->count entries a batch build
  // would have written.
  if (base != nullptr) {
    const auto copy_range = [&arena, base](Range& dst, const Range& src) {
      std::copy_n(base->arena_.data() + src.begin, src.count, arena.data() + dst.begin);
      dst.count = src.count;  // the pass-2 cursor resumes after the prefix
    };
    for (std::size_t c = 0; c < kCategories; ++c)
      copy_range(categories_[c], base->categories_[c]);
    for (std::size_t c = 0; c < kClasses; ++c) copy_range(classes_[c], base->classes_[c]);
    for (std::size_t m = 0; m < 12; ++m) copy_range(months_[m], base->months_[m]);
    copy_range(gpu_attributed_, base->gpu_attributed_);
    copy_range(multi_gpu_, base->multi_gpu_);
    for (const NodeGroup& group : base->node_groups_) {
      NodeGroup& dst = node_groups[group_of_node[static_cast<std::size_t>(group.node)]];
      std::copy_n(base->arena_.data() + group.begin, group.count, arena.data() + dst.begin);
      dst.count = group.count;
    }
  }

  // Pass 2: fill every group with the new positions in record (= time)
  // order, so each span stays strictly ascending.
  const auto push = [&arena](Range& range, std::uint32_t position) {
    arena[range.begin + range.count++] = position;
  };
  for (std::size_t i = from; i < n; ++i) {
    const auto position = static_cast<std::uint32_t>(i);
    const std::uint8_t category = category_bytes_[i];
    push(categories_[category], position);
    push(classes_[class_of[category]], position);
    push(months_[month_of(times[i - from])], position);
    NodeGroup& group = node_groups[group_of_node[static_cast<std::size_t>(nodes[i - from])]];
    arena[group.begin + group.count++] = position;
    if (gpu_related[category] && slot_count(i) > 0) {
      push(gpu_attributed_, position);
      if (slot_count(i) > 1) push(multi_gpu_, position);
    }
  }
  pass2.stop();

  hours_ = hours;
  arena_ = arena;
  node_groups_ = node_groups;
}

std::vector<double> LogIndex::hours_of(std::span<const std::uint32_t> positions) const {
  return stats::gather(hours_, positions);
}

std::vector<double> LogIndex::ttr_of(std::span<const std::uint32_t> positions) const {
  return stats::gather(ttr_, positions);
}

}  // namespace tsufail::data
