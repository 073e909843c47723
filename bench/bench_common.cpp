#include "bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/obs.h"
#include "sim/generator.h"
#include "util/build_info.h"
#include "util/simd.h"

namespace tsufail::bench {
namespace {

int g_mismatches = 0;

}  // namespace

double single_core_ops_per_s() {
  static const double kOpsPerSecond = [] {
    // splitmix64 mixing: integer-only, branch-free, not vectorizable into
    // triviality, and the final fold keeps the optimizer honest.
    constexpr std::uint64_t kIterations = 1u << 25;
    std::uint64_t state = kBenchSeed;
    obs::Stopwatch timer;
    std::uint64_t fold = 0;
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      state += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      fold ^= z ^ (z >> 31);
    }
    const double seconds = timer.seconds();
    // The fold must escape, or the loop is dead code.
    if (fold == 0x5ca1ab1e) std::printf("\n");
    return seconds > 0.0 ? static_cast<double>(kIterations) / seconds : 0.0;
  }();
  return kOpsPerSecond;
}

const data::FailureLog& bench_log(data::Machine machine) {
  static const data::FailureLog t2 =
      sim::generate_log(sim::tsubame2_model(), kBenchSeed).value();
  static const data::FailureLog t3 =
      sim::generate_log(sim::tsubame3_model(), kBenchSeed).value();
  return machine == data::Machine::kTsubame2 ? t2 : t3;
}

void print_banner(const std::string& experiment, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("data: calibrated synthetic logs (fleetsim seed %llu)\n",
              static_cast<unsigned long long>(kBenchSeed));
  std::printf("================================================================\n\n");
}

void print_comparisons(const report::ComparisonSet& set) {
  std::printf("%s\n", set.render().c_str());
  if (!set.all_within_tolerance()) ++g_mismatches;
}

int exit_code() { return g_mismatches == 0 ? 0 : 1; }

void PerfJson::set(const std::string& key, double value) { fields_.emplace_back(key, value); }
void PerfJson::set(const std::string& key, std::int64_t value) { fields_.emplace_back(key, value); }
void PerfJson::set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, value);
}

std::string PerfJson::render() const {
  std::string json = "{\n";
  json += "  \"bench\": \"" + name_ + "\"";
  char buffer[64];
  for (const auto& [key, value] : fields_) {
    json += ",\n  \"" + key + "\": ";
    if (const auto* num = std::get_if<double>(&value)) {
      std::snprintf(buffer, sizeof buffer, "%.17g", *num);
      json += buffer;
    } else if (const auto* integer = std::get_if<std::int64_t>(&value)) {
      std::snprintf(buffer, sizeof buffer, "%" PRId64, *integer);
      json += buffer;
    } else {
      json += "\"" + std::get<std::string>(value) + "\"";
    }
  }
  // Environment block: present in every record so perf numbers are never
  // compared across machines or build flavors without noticing.
  const util::BuildInfo& build = util::build_info();
  json += ",\n  \"env_hw_threads\": " + std::to_string(std::thread::hardware_concurrency());
  json += ",\n  \"env_compiler\": \"" + build.compiler + "\"";
  json += ",\n  \"env_build_type\": \"" + build.build_type + "\"";
  json += ",\n  \"env_flags\": \"" + build.flags + "\"";
  json += ",\n  \"env_simd_dispatch\": \"" +
          std::string(simd::level_name(simd::active_level())) + "\"";
  json += ",\n  \"env_simd_supported\": \"" + build.simd_supported + "\"";
  std::snprintf(buffer, sizeof buffer, "%.17g", single_core_ops_per_s());
  json += ",\n  \"env_single_core_ops_per_s\": ";
  json += buffer;
  json += "\n}\n";
  return json;
}

bool PerfJson::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream file(path, std::ios::binary);
  if (file) file << render();
  if (!file || !file.flush()) {
    std::printf("perf json: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("perf json: wrote %s\n", path.c_str());
  return true;
}

void add_span_aggregates(PerfJson& perf, const std::vector<obs::ProfileEntry>& entries,
                         std::size_t top) {
  std::size_t added = 0;
  for (const auto& entry : entries) {
    if (added++ >= top) break;
    std::string key = "span_" + entry.name;
    for (char& c : key) {
      if (c == '.' || c == '-') c = '_';
    }
    perf.set(key + "_count", static_cast<std::int64_t>(entry.count));
    perf.set(key + "_total_s", static_cast<double>(entry.total_ns) * 1e-9);
    perf.set(key + "_self_s", static_cast<double>(entry.self_ns) * 1e-9);
  }
}

}  // namespace tsufail::bench
