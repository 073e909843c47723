// perfbench: the C++ half of the pipeline benchmark (run.py is the other).
//
//   perfbench prepare analyze-csv|analyze-tsnap|serve-replay --seed S --dir D
//       Generates the workload's inputs from the seed, writes the reference
//       outputs, and times the program's set-up kSetupReps times (writing
//       the CSV, packing the snapshot).
//   perfbench replay --dir D
//       Times opening the tenants on a fresh service kSetupReps times
//       (set-up), then replays the prepared script once on a fresh service,
//       checking every QUERY study against batch analysis.
//   perfbench trace <workload> --seed S --dir D --jobs J --spans FILE
//       The traced run: the workload once untraced and once as spans around
//       each public call, then every other layer the workload does not
//       reach, on a paper-scale log of the same seed.  Writes the spans to
//       FILE; run.py derives the per-layer metrics from them.
//
// Each subcommand prints one JSON object on stdout.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/study.h"
#include "cli/commands.h"
#include "data/columnar.h"
#include "data/log_index.h"
#include "data/log_io.h"
#include "data/snapshot.h"
#include "inputs.h"
#include "obs/obs.h"
#include "replay.h"
#include "report/study_text.h"
#include "serve/service.h"
#include "sim/generator.h"
#include "sim/montecarlo.h"
#include "sim/tsubame_models.h"
#include "stats/bootstrap.h"
#include "stats/fit.h"
#include "stats/kernels.h"
#include "stream/event_stream.h"
#include "tracer.h"
#include "util/csv.h"

namespace perfbench {
namespace {

using namespace tsufail;

/// Times each harness process repeats the program's set-up; run.py
/// reports the median.
constexpr std::size_t kSetupReps = 5;
/// Untraced runs of the command in a traced run; the median is the wall
/// the traced figures are set against.
constexpr std::size_t kUntracedRuns = 3;
constexpr std::size_t kSweepReplicates = 1000;
/// Replicates of the paper-scale sweep that stands in on other workloads.
constexpr std::size_t kProbeReplicates = 20;
/// Every kRowSampleStride-th tenant feeds the per-row serve measurements.
constexpr std::size_t kRowSampleStride = 10;
/// The window slack `tsufail` allows when it reads a CSV log.
constexpr double kCsvSlackHours = 24.0 * 14;

// --- small helpers ----------------------------------------------------------

template <typename T>
T expect(Result<T> result, const std::string& what) {
  if (!result.ok()) throw std::runtime_error(what + ": " + result.error().to_string());
  return std::move(result.value());
}

void expect(Result<void> result, const std::string& what) {
  if (!result.ok()) throw std::runtime_error(what + ": " + result.error().to_string());
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// A flat JSON object printed as the subcommand's result.
class JsonOut {
 public:
  void number(const std::string& key, double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    add(key, buffer);
  }
  void numbers(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    char buffer[40];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buffer, sizeof buffer, "%s%.17g", i == 0 ? "" : ",", values[i]);
      text += buffer;
    }
    add(key, text + "]");
  }
  void print() const { std::cout << "{" << body_ << "}" << std::endl; }

 private:
  void add(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
  }
  std::string body_;
};

/// Output checks of one run: every comparison against a reference output
/// is one attempted operation, a mismatch one failure.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect_true(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }
  void add(std::size_t checked, std::size_t bad, const std::string& what) {
    attempted += checked;
    failed += bad;
    if (bad != 0) std::cerr << "check failed: " << what << " (" << bad << " of " << checked << ")\n";
  }
  /// One check per `QUERY <tenant> study` answered, and one that each of
  /// the `tenants` answered all of its study queries.
  void add_replay(const ReplayResult& result, std::size_t tenants) {
    add(result.study_checks, result.study_mismatches, "QUERY study == batch analysis");
    expect_true(result.study_checks == tenants * (kQueryRepeats + 1),
                "every QUERY study line answered");
  }
};

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;
  std::size_t jobs = 1;
  std::string spans;
};

// --- prepare / replay ---------------------------------------------------------

int prepare(const Args& args) {
  JsonOut json;
  std::vector<double> setup;
  if (args.workload == "serve-replay") {
    const auto tenants = fleet_tenants(args.seed, kFleetTenants);
    std::string opens;
    for (const auto& line : open_lines(tenants)) opens += line;
    std::string expected;
    for (const auto& tenant : tenants) {
      const std::string text = study_text(tenant.log, 1);
      expected += tenant.name + "\t" + std::to_string(text.size()) + "\n" + text;
    }
    std::string script;
    for (const auto& line : replay_script(tenants)) script += line;
    write_file(args.dir + "/open.txt", opens);
    write_file(args.dir + "/expected.txt", expected);
    write_file(args.dir + "/script.txt", script);
    json.number("tenants", static_cast<double>(tenants.size()));
    json.print();
    return 0;
  }

  const FailureLog log = scaled_log(args.seed, kFleetRecords);
  write_file(args.dir + "/expected.txt", study_text(log, 0));  // same text at any jobs
  const bool csv = args.workload == "analyze-csv";
  const std::string path = args.dir + (csv ? "/log.csv" : "/log.tsnap");
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    std::filesystem::remove(path);  // every repetition writes a new file, as the first does
    const std::int64_t start = now_ns();
    if (csv) {
      expect(data::write_log_file(path, log), "write_log_file");
    } else {
      const data::LogIndex index(log);
      expect(data::write_columnar_file(path, data::pack_columnar(log, &index)),
             "write_columnar_file");
    }
    setup.push_back(seconds_since(start));
  }
  json.numbers("setup_s", setup);
  json.number("records", static_cast<double>(log.size()));
  json.print();
  return 0;
}

int run_replay(const Args& args) {
  const auto lines_of = [&](const char* file) {
    std::vector<std::string> lines;
    std::istringstream text(read_file(args.dir + "/" + file));
    for (std::string line; std::getline(text, line);) lines.push_back(line + "\n");
    return lines;
  };
  const std::vector<std::string> opens = lines_of("open.txt");
  const std::vector<std::string> script = lines_of("script.txt");
  StudyTexts expected;
  {
    const std::string text = read_file(args.dir + "/expected.txt");
    for (std::size_t at = 0; at < text.size();) {
      const std::size_t tab = text.find('\t', at);
      const std::size_t newline = text.find('\n', tab);
      const std::size_t bytes = std::stoull(text.substr(tab + 1, newline - tab - 1));
      expected.emplace(text.substr(at, tab - at), text.substr(newline + 1, bytes));
      at = newline + 1 + bytes;
    }
  }

  obs::set_enabled(true);  // as `tsufail serve` runs
  std::vector<double> setup;
  std::size_t lines = 0, errors = 0;
  // Set-up is timed on its own, before the replay has grown the heap.
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t opened = now_ns();
    serve::FleetService service(replay_service_config());
    errors += open_tenants(service, opens);
    setup.push_back(seconds_since(opened));
    lines += opens.size();
  }
  serve::FleetService service(replay_service_config());
  errors += open_tenants(service, opens);
  const ReplayResult result = replay(service, script, expected, nullptr);
  Checks checks;
  checks.add_replay(result, expected.size());
  lines += opens.size() + result.lines;
  errors += result.errors;

  JsonOut json;
  json.numbers("setup_s", setup);
  json.number("wall_s", result.wall_s);
  json.number("ingest_s", result.ingest_s);
  json.number("events", static_cast<double>(result.events));
  json.number("lines", static_cast<double>(lines));
  json.number("errors", static_cast<double>(errors));
  json.number("checks", static_cast<double>(checks.attempted));
  json.number("check_failures", static_cast<double>(checks.failed));
  json.numbers("query_s", result.query_s);
  json.print();
  return 0;
}

// --- traced run ---------------------------------------------------------------

/// What the traced run reports beside its spans.  The serve figures come
/// from an untraced replay.
struct Facts {
  double untraced_wall_s = 0.0;
  double csv_bytes = 0.0;
  double rows_rejected = 0.0;
  double events = 0.0;
  double ingest_s = 0.0;
  std::vector<double> query_s;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  Checks checks;
};

/// Calls the public entry point the `tsufail` binary uses; returns stdout.
std::string dispatch(const std::vector<std::string>& argv, Checks& checks) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::dispatch(argv, out, err);
  checks.expect_true(code == 0, "tsufail " + argv[0] + " exits 0: " + err.str());
  return out.str();
}

/// Median wall of kUntracedRuns dispatches of `argv`, each output checked
/// against `expected`.
double untraced_wall_s(const std::vector<std::string>& argv, const std::string& expected,
                       const std::string& what, Checks& checks) {
  std::vector<double> walls;
  for (std::size_t run = 0; run < kUntracedRuns; ++run) {
    const std::int64_t start = now_ns();
    const std::string out = dispatch(argv, checks);
    walls.push_back(seconds_since(start));
    checks.expect_true(out == expected, what);
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

/// select_family on the sample the TBF/TTR analyses fit (its positive
/// part, sorted, when it has at least 8 points); checks that the pick
/// matches the one in the analysis result.
void time_family(Tracer& tracer, std::vector<double> sample,
                 const std::optional<stats::FamilyChoice>& reported, const char* what,
                 Checks& checks) {
  std::sort(sample.begin(), sample.end());
  const std::vector<double> positive(std::upper_bound(sample.begin(), sample.end(), 0.0),
                                     sample.end());
  if (positive.size() < 8) return;
  auto choice = [&] {
    auto span = tracer.span("stats.select_family");
    return stats::select_family(positive);
  }();
  checks.expect_true(choice.ok() && reported.has_value() &&
                         choice.value().family == reported->family &&
                         choice.value().ks_distance == reported->ks_distance,
                     std::string("select_family matches the report's ") + what + " family");
}

/// Every public call of the study on one log, serially: the index build,
/// each of the 12 analyses, family selection on the TBF and TTR samples,
/// and a jobs-1 run_study (for the executor's overhead); with `render`,
/// also the text rendering.
void analysis_breakdown(Tracer& tracer, const FailureLog& log, bool render, Checks& checks) {
  auto group = tracer.span("analysis.breakdown");
  std::optional<data::LogIndex> index;
  {
    auto span = tracer.span("data.index_build");
    index.emplace(log);
  }
  const data::LogIndex& i = *index;
  const auto task = [&](const char* name, const auto& analyze) {
    auto span = tracer.span(name);
    return analyze();
  };
  using namespace analysis;
  (void)task("analysis.categories", [&] { return analyze_categories(i); });
  (void)task("analysis.software_loci", [&] { return analyze_software_loci(i); });
  (void)task("analysis.node_counts", [&] { return analyze_node_counts(i); });
  (void)task("analysis.gpu_slots", [&] { return analyze_gpu_slots(i); });
  (void)task("analysis.multi_gpu", [&] { return analyze_multi_gpu(i); });
  const auto tbf = task("analysis.tbf", [&] { return analyze_tbf(i); });
  (void)task("analysis.tbf_by_category", [&] { return analyze_tbf_by_category(i); });
  (void)task("analysis.multi_gpu_clustering", [&] { return analyze_multi_gpu_clustering(i); });
  const auto ttr = task("analysis.ttr", [&] { return analyze_ttr(i); });
  (void)task("analysis.ttr_by_category", [&] { return analyze_ttr_by_category(i); });
  (void)task("analysis.seasonal", [&] { return analyze_seasonal(i); });
  (void)task("analysis.perf_error_prop", [&] { return analyze_perf_error_prop(i); });

  if (tbf.ok()) {
    std::vector<double> hours(index->hours().begin(), index->hours().end());
    std::sort(hours.begin(), hours.end());
    time_family(tracer, stats::adjacent_deltas(hours), tbf.value().best_family, "TBF", checks);
  }
  if (ttr.ok()) {
    time_family(tracer, std::vector<double>(index->ttr().begin(), index->ttr().end()),
                ttr.value().best_family, "TTR", checks);
  }

  auto study = [&] {
    auto span = tracer.span("analysis.run_study_jobs1");
    return analysis::run_study(log, {1});
  }();
  checks.expect_true(study.ok(), "run_study succeeds");
  if (render && study.ok()) {
    auto span = tracer.span("report.render_study_text");
    report::render_study_text(log, study.value());
  }
}

/// Reads the CSV log at `path` (span data.read_log_file).
data::ReadReport read_csv(Tracer& tracer, const std::string& path, Facts& facts) {
  auto report = expect(
      [&] {
        auto span = tracer.span("data.read_log_file");
        return data::read_log_file(path);
      }(),
      "read_log_file");
  facts.rows_rejected = static_cast<double>(report.row_errors.size());
  return report;
}

/// The CSV calls on `path` beside the full read: tokenizing the text, and
/// creating the log (sort + validate) from the records `loaded` holds.
void csv_layers(Tracer& tracer, const std::string& path, const FailureLog& loaded, Facts& facts,
                Checks& checks) {
  const std::string text = read_file(path);
  facts.csv_bytes = static_cast<double>(text.size());
  auto document = [&] {
    auto span = tracer.span("util.csv_tokenize");
    return CsvDocument::parse(text);
  }();
  checks.expect_true(document.ok() && document.value().records().size() == loaded.size(),
                     "CsvDocument::parse sees every row");
  std::vector<data::FailureRecord> records(loaded.records().begin(), loaded.records().end());
  auto created = [&] {
    auto span = tracer.span("data.log_create");
    return FailureLog::create(loaded.spec(), std::move(records), kCsvSlackHours);
  }();
  checks.expect_true(created.ok() && created.value().size() == loaded.size(),
                     "FailureLog::create keeps every record");
}

/// Packs `log` with its index to `path` (span data.pack).
void pack(Tracer& tracer, const FailureLog& log, const std::string& path) {
  const data::LogIndex index(log);
  auto span = tracer.span("data.pack");
  expect(data::write_columnar_file(path, data::pack_columnar(log, &index)), "pack");
}

/// Packing `log` to `path`, then opening and materializing it.
void tsnap_layers(Tracer& tracer, const FailureLog& log, const std::string& path, Checks& checks) {
  pack(tracer, log, path);
  auto snapshot = [&] {
    auto span = tracer.span("data.tsnap_open");
    return data::ColumnarSnapshot::open(path);
  }();
  checks.expect_true(snapshot.ok(), "ColumnarSnapshot::open succeeds");
  if (!snapshot.ok()) return;
  auto span = tracer.span("data.tsnap_to_log");
  const std::size_t size = snapshot.value()->to_log().size();
  span.end();
  checks.expect_true(size == log.size(), "to_log keeps every record");
}

/// run_sweep with the default pipeline (run_study at jobs 1, then
/// study_metrics) passed as the stage, each stage one span.  `full` also
/// spans each replicate's run_study (the sweep workload's analysis.study).
sim::SweepResult staged_sweep(Tracer& tracer, const sim::SweepOptions& base, bool full,
                              Checks& checks) {
  const sim::MachineModel model = sim::tsubame3_model();
  const std::vector<sim::SweepVariant> variants{{model.spec.name + " (baseline)", model, {}}};
  sim::SweepOptions options = base;
  auto sweep_span = tracer.span("sim.run_sweep");
  const Tracer::SpanId sweep_id = sweep_span.id();
  const Tracer::NameId stage_name = tracer.intern("sim.stage");
  const Tracer::NameId study_name = tracer.intern("analysis.run_study");
  const Tracer::NameId metrics_name = tracer.intern("sim.study_metrics");
  options.stage = [&](const FailureLog& log,
                      std::uint64_t) -> Result<std::vector<sim::MetricSample>> {
    auto stage = tracer.span(stage_name, sweep_id);  // worker threads: parent given
    std::optional<Tracer::Scope> study_span;
    if (full) study_span.emplace(tracer, study_name, stage.id());
    auto study = analysis::run_study(log, {1});
    if (study_span) study_span->end();
    if (!study.ok()) return study.error();
    auto metrics = tracer.span(metrics_name, stage.id());
    return sim::study_metrics(study.value());
  };
  auto result = sim::run_sweep(variants, options);
  sweep_span.end();
  checks.expect_true(result.ok(), "run_sweep succeeds");
  return result.ok() ? std::move(result.value()) : sim::SweepResult{};
}

/// The sweep's other calls on their own: generating every replicate's log,
/// and the bootstrap CI of every metric over the replicates of `sweep`.
void sweep_parts(Tracer& tracer, const sim::SweepOptions& options, const sim::SweepResult& sweep) {
  const sim::MachineModel model = sim::tsubame3_model();
  for (std::size_t r = 0; r < options.replicates; ++r) {
    auto span = tracer.span("sim.generate_log");
    (void)sim::generate_log(model, sim::replicate_seed(options.base_seed, r));
  }
  if (sweep.variants.empty()) return;
  const auto& variant = sweep.variants.front();
  for (std::size_t m = 0; m < variant.aggregates.size(); ++m) {
    std::vector<double> sample;
    for (const auto& replicate : variant.replicates) {
      for (const auto& metric : replicate.metrics) {
        if (metric.name == variant.aggregates[m].name) sample.push_back(metric.value);
      }
    }
    Rng rng(fork_seed(options.base_seed, m));
    auto span = tracer.span("stats.bootstrap_mean_ci");
    (void)stats::bootstrap_mean_ci(sample, rng, options.bootstrap_replicates, options.ci_level);
  }
}

sim::SweepOptions sweep_options(std::uint64_t seed, std::size_t replicates, std::size_t jobs) {
  sim::SweepOptions options;
  options.base_seed = seed;
  options.replicates = replicates;
  options.jobs = jobs;
  return options;
}

/// Replays `tenants` through fresh services: twice untraced (the first
/// warms the heap, the second gives the ingest, query and cache figures),
/// then with one span per protocol line (the workload's replica when
/// `as_replica`).  Then times the calls under the protocol on every
/// `stride`-th tenant: parsing a row, FleetService::ingest_row, the
/// tenant's EventStream offer + poll, LogSnapshot::extend per epoch, and
/// FleetService::query split by cache hit.
void serve_layers(Tracer& tracer, const std::vector<TenantInput>& tenants, std::size_t stride,
                  bool as_replica, Facts& facts, Checks& checks) {
  const bool obs_was_on = obs::enabled();
  obs::set_enabled(true);  // as `tsufail serve` runs
  const auto script = replay_script(tenants);
  StudyTexts expected;
  for (const auto& tenant : tenants) expected.emplace(tenant.name, study_text(tenant.log, 1));
  for (int pass = 0; pass < 3; ++pass) {
    const bool traced = pass == 2;
    serve::FleetService service(replay_service_config());
    checks.expect_true(open_tenants(service, open_lines(tenants)) == 0, "every OPEN answers OK");
    std::optional<Tracer::Scope> replica;
    if (traced && as_replica) replica.emplace(tracer, tracer.intern("replica"), Tracer::kNoParent);
    const ReplayResult result = replay(service, script, expected, traced ? &tracer : nullptr);
    if (replica) replica->end();
    checks.expect_true(result.errors == 0, "no protocol line answers ERR");
    checks.add_replay(result, tenants.size());
    if (pass != 1) continue;
    if (as_replica) facts.untraced_wall_s = result.wall_s;
    facts.events = static_cast<double>(result.events);
    facts.ingest_s = result.ingest_s;
    facts.query_s = result.query_s;
    facts.cache_hits = static_cast<double>(service.cache_stats().hits);
    facts.cache_misses = static_cast<double>(service.cache_stats().misses);
  }

  serve::FleetService service(replay_service_config());
  const serve::TenantConfig config = service.config().tenant;
  const Tracer::NameId parse_row = tracer.intern("data.parse_record_row");
  const Tracer::NameId ingest_row = tracer.intern("serve.ingest_row");
  const Tracer::NameId offer_poll = tracer.intern("stream.offer_poll");
  const Tracer::NameId hit = tracer.intern("serve.query_hit");
  const Tracer::NameId miss = tracer.intern("serve.query_miss");
  for (std::size_t t = 0; t < tenants.size(); t += stride) {
    const TenantInput& tenant = tenants[t];
    const FailureLog& log = tenant.log;
    const auto rows = csv_rows(log);
    for (const auto& row : rows) {
      auto span = tracer.span(parse_row);
      (void)data::parse_record_row(row);
    }
    expect(service.open_tenant(tenant.name, log.spec()), "open_tenant");
    for (const auto& row : rows) {
      auto span = tracer.span(ingest_row);
      (void)service.ingest_row(tenant.name, row);
    }
    auto stream = expect(stream::EventStream::create(log.spec(), config.stream), "EventStream");
    for (const auto& record : log.records()) {
      auto span = tracer.span(offer_poll);
      (void)stream.offer(record);
      while (stream.poll()) {
      }
    }
    auto snapshot = expect(
        data::LogSnapshot::build(expect(FailureLog::create(log.spec(), {}), "empty log")),
        "LogSnapshot::build");
    for (std::size_t third = 0; third < 3; ++third) {
      std::vector<data::FailureRecord> part(log.records().begin() + third * log.size() / 3,
                                            log.records().begin() + (third + 1) * log.size() / 3);
      auto next = [&] {
        auto span = tracer.span("data.snapshot_extend");
        return data::LogSnapshot::extend(*snapshot, std::move(part), config.slack_hours);
      }();
      snapshot = expect(std::move(next), "LogSnapshot::extend");
    }
    expect(service.seal(tenant.name), "seal");
    for (const auto& key : serve::FleetService::keys()) {
      for (std::size_t r = 0; r <= kQueryRepeats; ++r) {
        auto span = tracer.span(miss);
        auto response = service.query(tenant.name, key.key);
        if (response.ok() && response.value().cached) span.rename(hit);
      }
    }
  }
  obs::set_enabled(obs_was_on);
}

/// analyze-csv / analyze-tsnap: the command untraced, then its own calls
/// (load, run_study at the workload's jobs, render) as the replica, then the
/// finer calls inside them.
void trace_analyze(Tracer& tracer, const Args& args, Facts& facts) {
  Checks& checks = facts.checks;
  const bool csv = args.workload == "analyze-csv";
  const FailureLog log = scaled_log(args.seed, kFleetRecords);
  const std::string expected = study_text(log, 0);
  const std::string path = args.dir + (csv ? "/log.csv" : "/log.tsnap");
  if (csv) {
    expect(data::write_log_file(path, log), "write_log_file");
  } else {
    pack(tracer, log, path);
  }

  // The first command warms the page cache and the heap, as the replica
  // after it finds them.
  const std::vector<std::string> command = {"analyze", path, "--jobs", std::to_string(args.jobs)};
  checks.expect_true(dispatch(command, checks) == expected, "analyze output == reference");
  facts.untraced_wall_s =
      untraced_wall_s(command, expected, "analyze output == render of the generated log", checks);

  std::optional<Tracer::Scope> replica;
  replica.emplace(tracer, tracer.intern("replica"), Tracer::kNoParent);
  const FailureLog loaded = [&] {
    if (csv) return read_csv(tracer, path, facts).log;
    auto snapshot = expect(
        [&] {
          auto span = tracer.span("data.tsnap_open");
          return data::ColumnarSnapshot::open(path);
        }(),
        "open");
    auto span = tracer.span("data.tsnap_to_log");
    return snapshot->to_log();
  }();
  const auto study = expect(
      [&] {
        auto span = tracer.span("analysis.run_study");
        return analysis::run_study(loaded, {args.jobs});
      }(),
      "run_study");
  const std::string text = [&] {
    auto span = tracer.span("report.render_study_text");
    return report::render_study_text(loaded, study);
  }();
  replica->end();
  checks.expect_true(text == expected, "traced analyze text == render of the generated log");

  if (csv) csv_layers(tracer, path, loaded, facts, checks);
  analysis_breakdown(tracer, loaded, false, checks);
}

/// sweep: the command untraced (checked against jobs 1), then run_sweep
/// with the default pipeline as a spanned stage as the replica, then every
/// replicate's study calls one by one.
void trace_sweep(Tracer& tracer, const Args& args, Facts& facts) {
  Checks& checks = facts.checks;
  const std::vector<std::string> command = {"sweep", "--replicates",
                                            std::to_string(kSweepReplicates), "--seed",
                                            std::to_string(args.seed), "--jobs"};
  auto with_jobs = [&](std::size_t jobs) {
    auto argv = command;
    argv.push_back(std::to_string(jobs));
    return argv;
  };
  const std::string reference = dispatch(with_jobs(1), checks);
  facts.untraced_wall_s = untraced_wall_s(with_jobs(args.jobs), reference,
                                          "sweep text at the workload's jobs == jobs 1", checks);

  const sim::SweepOptions options = sweep_options(args.seed, kSweepReplicates, args.jobs);
  std::optional<Tracer::Scope> replica;
  replica.emplace(tracer, tracer.intern("replica"), Tracer::kNoParent);
  const sim::SweepResult staged = staged_sweep(tracer, options, true, checks);
  replica->end();
  sweep_parts(tracer, options, staged);

  const auto plain = expect(sim::run_sweep(sim::tsubame3_model(), options), "run_sweep");
  bool same = staged.variants.size() == 1 &&
              staged.variants[0].aggregates.size() == plain.variants[0].aggregates.size();
  for (std::size_t m = 0; same && m < plain.variants[0].aggregates.size(); ++m) {
    const auto& a = staged.variants[0].aggregates[m];
    const auto& b = plain.variants[0].aggregates[m];
    same = a.name == b.name && a.mean == b.mean && a.stddev == b.stddev &&
           a.mean_ci.low == b.mean_ci.low && a.mean_ci.high == b.mean_ci.high;
  }
  checks.expect_true(same, "the staged default pipeline == run_sweep's own pipeline");

  const sim::MachineModel model = sim::tsubame3_model();
  for (std::size_t r = 0; r < kSweepReplicates; ++r) {
    const FailureLog log =
        expect(sim::generate_log(model, sim::replicate_seed(args.seed, r)), "generate_log");
    analysis_breakdown(tracer, log, true, checks);
  }
}

/// serve-replay: the replay untraced, then with one span per protocol line
/// as the replica, then the calls under the protocol and every tenant's
/// study calls one by one.
void trace_serve(Tracer& tracer, const Args& args, Facts& facts) {
  const auto tenants = fleet_tenants(args.seed, kFleetTenants);
  serve_layers(tracer, tenants, kRowSampleStride, true, facts, facts.checks);
  for (const auto& tenant : tenants) analysis_breakdown(tracer, tenant.log, true, facts.checks);
}

int trace(const Args& args) {
  Tracer tracer;
  Facts facts;
  const std::string& workload = args.workload;
  if (workload == "analyze-csv" || workload == "analyze-tsnap") {
    trace_analyze(tracer, args, facts);
  } else if (workload == "sweep") {
    trace_sweep(tracer, args, facts);
  } else if (workload == "serve-replay") {
    obs::set_enabled(true);  // as `tsufail serve` runs
    trace_serve(tracer, args, facts);
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }

  // Every traced run reports every layer: the layers this workload does
  // not reach are timed on a paper-scale log of the same seed, each under
  // its own probe.* span.
  Checks& checks = facts.checks;
  const FailureLog paper = paper_log(args.seed, false);
  if (workload != "analyze-csv") {
    auto span = tracer.span("probe.csv");
    const std::string path = args.dir + "/probe.csv";
    expect(data::write_log_file(path, paper), "write_log_file");
    csv_layers(tracer, path, read_csv(tracer, path, facts).log, facts, checks);
  }
  if (workload != "analyze-tsnap") {
    auto span = tracer.span("probe.tsnap");
    tsnap_layers(tracer, paper, args.dir + "/probe.tsnap", checks);
  }
  if (workload != "sweep") {
    auto span = tracer.span("probe.sweep");
    const sim::SweepOptions options = sweep_options(args.seed, kProbeReplicates, args.jobs);
    sweep_parts(tracer, options, staged_sweep(tracer, options, false, checks));
  }
  if (workload != "serve-replay") {
    auto span = tracer.span("probe.serve");
    std::vector<TenantInput> tenants;
    tenants.push_back({"probe2", "tsubame-2", paper_log(args.seed, true)});
    tenants.push_back({"probe3", "tsubame-3", paper});
    serve_layers(tracer, tenants, 1, false, facts, checks);
  }

  if (!tracer.write(args.spans, workload + "/seed-" + std::to_string(args.seed)))
    throw std::runtime_error("cannot write " + args.spans);
  JsonOut json;
  json.number("untraced_wall_s", facts.untraced_wall_s);
  json.number("jobs", static_cast<double>(args.jobs));
  json.number("csv_bytes", facts.csv_bytes);
  json.number("rows_rejected", facts.rows_rejected);
  json.number("events", facts.events);
  json.number("ingest_s", facts.ingest_s);
  json.numbers("query_s", facts.query_s);
  json.number("cache_hits", facts.cache_hits);
  json.number("cache_misses", facts.cache_misses);
  json.number("checks", static_cast<double>(checks.attempted));
  json.number("check_failures", static_cast<double>(checks.failed));
  json.print();
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::runtime_error("usage: perfbench prepare|replay|trace ...");
  args.command = argv[1];
  int i = 2;
  if (args.command != "replay") {
    if (argc < 3) throw std::runtime_error("missing workload");
    args.workload = argv[i++];
  }
  for (; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--jobs") {
      args.jobs = std::stoull(value);
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (i != argc) throw std::runtime_error("flag without a value");
  if (args.dir.empty()) throw std::runtime_error("--dir is required");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "prepare") return prepare(args);
    if (args.command == "replay") return run_replay(args);
    if (args.command == "trace") return trace(args);
    throw std::runtime_error("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
