#include "cli/commands.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <ostream>
#include <thread>

#include "analysis/lead_lag.h"
#include "analysis/node_survival.h"
#include "analysis/rack_distribution.h"
#include "analysis/rolling.h"
#include "analysis/study.h"
#include "data/columnar.h"
#include "data/legacy_import.h"
#include "data/log_index.h"
#include "data/log_io.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "ops/availability.h"
#include "ops/capacity.h"
#include "ops/checkpoint.h"
#include "ops/job_impact.h"
#include "ops/maintenance.h"
#include "ops/repair_sweep.h"
#include "ops/repairshop.h"
#include "ops/spares.h"
#include "predict/evaluate.h"
#include "report/markdown_report.h"
#include "report/paper_figures.h"
#include "report/repair_text.h"
#include "report/study_text.h"
#include "report/table.h"
#include "obs/slo.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/top.h"
#include "sim/generator.h"
#include "sim/montecarlo.h"
#include "sim/scaling.h"
#include "sim/tsubame_models.h"
#include "stream/alerts.h"
#include "stream/event_stream.h"
#include "stream/health.h"
#include "util/build_info.h"

namespace tsufail::cli {
namespace {

// --- shared helpers ---------------------------------------------------

/// True iff `path` starts with the columnar-snapshot magic (cheap
/// 8-byte sniff; unreadable files report false and fall through to the
/// CSV reader's richer error).
bool is_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char prefix[8] = {};
  if (!in.read(prefix, sizeof prefix)) return false;
  return data::ColumnarSnapshot::sniff({prefix, sizeof prefix});
}

/// Loads a failure log from either accepted on-disk form — the canonical
/// CSV schema or a packed columnar snapshot (detected by magic, not
/// extension) — so every command takes .csv and .tsnap interchangeably.
Result<data::FailureLog> load_log(const ParsedArgs& args, std::size_t position = 0) {
  const std::string& path = args.positionals()[position];
  if (is_snapshot_file(path)) {
    auto snapshot = data::ColumnarSnapshot::open(path);
    if (!snapshot.ok()) return snapshot.error();
    return snapshot.value()->to_log();
  }
  const auto policy = args.flag("strict") ? data::ReadPolicy::kStrict : data::ReadPolicy::kLenient;
  auto report = data::read_log_file(path, policy);
  if (!report.ok()) return report.error();
  return std::move(report.value().log);
}

/// The index `analyze` studies.  A .tsnap is adopted in place: the index
/// reads the mapped record columns, so no FailureRecord is built.  A CSV
/// is read into a log, indexed, and its records freed before the study
/// runs, so the two are never resident beside the study's working set.
Result<data::LogIndex> load_index(const ParsedArgs& args) {
  const std::string& path = args.positionals()[0];
  if (is_snapshot_file(path)) {
    auto snapshot = data::ColumnarSnapshot::open(path);
    if (!snapshot.ok()) return snapshot.error();
    return data::LogIndex(std::move(snapshot).value());
  }
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  data::LogIndex index(log.value());
  OBS_SPAN("log.free");
  data::FailureLog::take_records(std::move(log).value());
  return index;
}

Result<sim::MachineModel> resolve_model(const ParsedArgs& args) {
  auto machine_name = args.get("machine");
  if (!machine_name.ok()) return machine_name.error();
  auto machine = data::parse_machine(machine_name.value());
  if (!machine.ok()) return machine.error();
  sim::MachineModel model = machine.value() == data::Machine::kTsubame2
                                ? sim::tsubame2_model()
                                : sim::tsubame3_model();
  if (args.has("failures")) {
    auto failures = args.get_int("failures");
    if (!failures.ok()) return failures.error();
    if (failures.value() <= 0)
      return Error(ErrorKind::kDomain, "--failures must be positive");
    model.total_failures = static_cast<std::size_t>(failures.value());
  }
  model.knobs.enable_bursts = !args.flag("no-bursts");
  model.knobs.enable_node_heterogeneity = !args.flag("no-heterogeneity");
  model.knobs.enable_slot_weights = !args.flag("no-slot-weights");
  model.knobs.enable_seasonal = !args.flag("no-seasonal");
  return model;
}

/// The log every log-reading command takes; load_log sniffs which form.
PositionalSpec log_positional() {
  return {"log.csv", "failure log: tsufail CSV or a packed .tsnap snapshot", true};
}

OptionSpec strict_option() {
  return {"strict", "", "fail on the first malformed CSV row instead of skipping", {}};
}

OptionSpec jobs_option() {
  return {"jobs", "N", "worker threads for the study's analyses (0 = all hardware threads)",
          std::string("1")};
}

// --- the front door -------------------------------------------------------
//
// dispatch() and profile run every command through run_command(), the one
// place that switches observability for a command.  The commands the table
// marks `traced` take --trace FILE (Chrome-trace JSON for Perfetto) and
// --metrics FILE (.json -> JSON, anything else -> Prometheus text).

OptionSpec trace_option() {
  return {"trace", "FILE",
          "record spans and write a Chrome-trace JSON (open in ui.perfetto.dev)", {}};
}

Result<void> write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file)
    return Error(ErrorKind::kIo, "cannot open '" + path + "' for writing");
  file << text;
  if (!file.flush())
    return Error(ErrorKind::kIo, "write error on '" + path + "'");
  return {};
}

/// Writes the --trace and --metrics files a traced command was given.
Result<void> write_obs_outputs(const ParsedArgs& args, std::ostream& out) {
  if (args.has("trace")) {
    const std::string path = args.get("trace").value();
    const auto snapshot = obs::collect_trace();
    if (auto w = write_text_file(path, obs::chrome_trace_json(snapshot)); !w.ok())
      return w.error().with_context("--trace");
    out << "wrote trace (" << snapshot.span_count() << " spans, "
        << snapshot.threads.size() << " threads";
    if (snapshot.dropped_total() > 0) out << ", " << snapshot.dropped_total() << " dropped";
    out << ") to " << path << "\n";
  }
  if (args.has("metrics")) {
    const std::string path = args.get("metrics").value();
    const auto snapshot = obs::collect_metrics();
    const std::string text =
        path.ends_with(".json") ? obs::metrics_json(snapshot) : obs::prometheus_text(snapshot);
    if (auto w = write_text_file(path, text); !w.ok()) return w.error().with_context("--metrics");
    out << "wrote metrics (" << snapshot.counters.size() << " counters, "
        << snapshot.gauges.size() << " gauges, " << snapshot.histograms.size()
        << " histograms) to " << path << "\n";
  }
  return {};
}

const Command* find_command(std::string_view name) {
  for (const auto& command : commands()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

/// The command's parser, with --trace and --metrics for traced commands.
ArgParser parser_for(const Command& command) {
  ArgParser parser = command.make_parser();
  if (command.traced) {
    parser.option(trace_option());
    parser.option({"metrics", "FILE",
                   "write a metrics snapshot (.json extension = JSON, otherwise Prometheus text)",
                   {}});
  }
  return parser;
}

/// Runs `command` inside a `cli.<name>` span (free while obs is off).
/// For --trace/--metrics it checks both paths first, clears the recorders
/// and switches obs on unless obs is on already, and writes both files
/// after a successful run.  The obs switch is restored on every path.
Result<void> run_command(const Command& command, const ParsedArgs& args, std::ostream& out) {
  const bool observed = command.traced && (args.has("trace") || args.has("metrics"));
  for (const std::string flag : {"trace", "metrics"}) {
    if (!observed || !args.has(flag)) continue;
    if (auto ok = validate_writable_path(args.get(flag).value()); !ok.ok())
      return ok.error().with_context("--" + flag);
  }
  const bool was_enabled = obs::enabled();
  if (observed && !was_enabled) {
    obs::reset_trace();
    obs::reset_metrics();
    obs::set_enabled(true);
  }
  obs::SpanScope span(obs::enabled() ? obs::intern(("cli." + command.name).c_str()) : nullptr);
  Result<void> result = command.run(args, out);
  span.stop();
  if (result.ok() && observed) result = write_obs_outputs(args, out);
  obs::set_enabled(was_enabled);
  return result;
}

Result<analysis::StudyOptions> resolve_study_options(const ParsedArgs& args) {
  auto jobs = args.get_int("jobs");
  if (!jobs.ok()) return jobs.error();
  if (jobs.value() < 0)
    return Error(ErrorKind::kDomain, "--jobs must be >= 0");
  return analysis::StudyOptions{static_cast<std::size_t>(jobs.value())};
}

// --- simulate -----------------------------------------------------------

ArgParser make_simulate_parser() {
  ArgParser parser("simulate", "Generate a calibrated synthetic failure log as CSV.");
  parser.positional({"out.csv", "output path", true});
  parser.option({"machine", "NAME", "tsubame-2 or tsubame-3", std::string("tsubame-3")});
  parser.option({"seed", "N", "generator seed", std::string("1")});
  parser.option({"failures", "N", "override the calibrated failure count", {}});
  parser.option({"no-bursts", "", "disable temporal burst clustering", {}});
  parser.option({"no-heterogeneity", "", "disable the lemon-node hazard mix", {}});
  parser.option({"no-slot-weights", "", "disable non-uniform GPU slot selection", {}});
  parser.option({"no-seasonal", "", "disable monthly intensity/TTR modulation", {}});
  return parser;
}

Result<void> run_simulate(const ParsedArgs& args, std::ostream& out) {
  auto model = resolve_model(args);
  if (!model.ok()) return model.error();
  auto seed = args.get_int("seed");
  if (!seed.ok()) return seed.error();
  auto log = sim::generate_log(model.value(), static_cast<std::uint64_t>(seed.value()));
  if (!log.ok()) return log.error();
  const std::string& path = args.positionals()[0];
  if (auto written = data::write_log_file(path, log.value()); !written.ok())
    return written.error();
  out << "wrote " << log.value().size() << " failures (" << model.value().spec.name << ", seed "
      << seed.value() << ") to " << path << "\n";
  return {};
}

// --- analyze --------------------------------------------------------------

ArgParser make_analyze_parser() {
  ArgParser parser("analyze", "Run the full DSN'21 study on a failure log.");
  parser.positional(log_positional());
  parser.option(strict_option());
  parser.option(jobs_option());
  return parser;
}

Result<void> run_analyze(const ParsedArgs& args, std::ostream& out) {
  auto index = load_index(args);
  if (!index.ok()) return index.error();
  auto options = resolve_study_options(args);
  if (!options.ok()) return options.error();
  auto study = analysis::run_study(index.value(), options.value());
  if (!study.ok()) return study.error();
  out << report::render_study_text(index.value(), study.value());
  return {};
}

// --- sweep ------------------------------------------------------------------

ArgParser make_sweep_parser() {
  ArgParser parser("sweep",
                   "Monte Carlo sweep: run many seeded replicates of a calibrated (optionally "
                   "rescaled) machine model and aggregate the study metrics with bootstrap CIs.");
  parser.option({"machine", "NAME", "tsubame-2 or tsubame-3", std::string("tsubame-3")});
  parser.option({"replicates", "N", "replicates (seeds) per variant", std::string("20")});
  parser.option({"jobs", "N",
                 "worker threads across replicates (0 = all hardware threads); aggregates are "
                 "bit-identical for every value",
                 std::string("1")});
  parser.option({"seed", "N", "base seed; replicate r runs on a deterministic (seed, r) fork",
                 std::string("1")});
  parser.option({"gpus-per-node", "N", "add a what-if variant rescaled to N GPUs per node", {}});
  parser.option({"correlated", "",
                 "use the Tsubame-2-like correlated multi-GPU regime for --gpus-per-node", {}});
  parser.option({"nodes", "N", "add a what-if variant rescaled to an N-node fleet", {}});
  parser.option({"failures", "N", "override the calibrated failure count", {}});
  parser.option({"level", "P", "confidence level for the aggregate CIs", std::string("0.95")});
  parser.option({"quick", "", "smoke preset: 4 replicates (overrides --replicates)", {}});
  parser.option({"all-metrics", "", "print every aggregate, including per-category ones", {}});
  parser.option({"no-bursts", "", "disable temporal burst clustering", {}});
  parser.option({"no-heterogeneity", "", "disable the lemon-node hazard mix", {}});
  parser.option({"no-slot-weights", "", "disable non-uniform GPU slot selection", {}});
  parser.option({"no-seasonal", "", "disable monthly intensity/TTR modulation", {}});
  return parser;
}

Result<void> run_sweep_command(const ParsedArgs& args, std::ostream& out) {
  auto model = resolve_model(args);
  if (!model.ok()) return model.error();
  auto replicates_arg = args.get_int("replicates");
  if (!replicates_arg.ok()) return replicates_arg.error();
  const long long replicates = args.flag("quick") ? 4 : replicates_arg.value();
  if (replicates <= 0)
    return Error(ErrorKind::kDomain, "--replicates must be positive");
  auto jobs = args.get_int("jobs");
  if (!jobs.ok()) return jobs.error();
  if (jobs.value() < 0)
    return Error(ErrorKind::kDomain, "--jobs must be >= 0");
  auto seed = args.get_int("seed");
  if (!seed.ok()) return seed.error();
  auto level = args.get_double("level");
  if (!level.ok()) return level.error();

  std::vector<sim::SweepVariant> variants;
  variants.push_back({model.value().spec.name + " (baseline)", model.value()});
  if (args.has("gpus-per-node") || args.has("nodes")) {
    sim::MachineModel scaled = model.value();
    std::string label = "what-if:";
    if (args.has("gpus-per-node")) {
      auto gpus = args.get_int("gpus-per-node");
      if (!gpus.ok()) return gpus.error();
      const auto regime = args.flag("correlated") ? sim::InvolvementRegime::kCorrelated
                                                  : sim::InvolvementRegime::kIndependent;
      auto dense = sim::scale_gpu_density(scaled, static_cast<int>(gpus.value()), regime);
      if (!dense.ok()) return dense.error().with_context("--gpus-per-node");
      scaled = std::move(dense.value());
      label += " " + std::to_string(gpus.value()) + " GPUs/node" +
               (args.flag("correlated") ? " (correlated)" : "");
    }
    if (args.has("nodes")) {
      auto nodes = args.get_int("nodes");
      if (!nodes.ok()) return nodes.error();
      auto fleet = sim::scale_fleet_size(scaled, static_cast<int>(nodes.value()));
      if (!fleet.ok()) return fleet.error().with_context("--nodes");
      scaled = std::move(fleet.value());
      label += " " + std::to_string(nodes.value()) + " nodes";
    }
    variants.push_back({label, std::move(scaled)});
  }

  // The headline metrics and their display names, in print order.  The
  // sweep bootstraps only these unless --all-metrics prints every metric.
  static constexpr std::pair<const char*, const char*> kHeadlines[] = {
      {"failures", "failures"},
      {"mtbf_hours", "MTBF (h)"},
      {"mttr_hours", "MTTR (h)"},
      {"gpu_share_percent", "GPU share %"},
      {"software_share_percent", "software share %"},
      {"percent_multi_failure_nodes", "multi-failure nodes %"},
      {"multi_gpu_percent", "multi-GPU failures %"},
      {"slot_max_relative_excess", "slot imbalance"},
      {"multi_gpu_gap_cv", "multi-GPU gap CV"},
      {"h2_h1_ttr_ratio", "H2/H1 TTR"},
      {"pflop_hours_per_failure_free_period", "PFlop-h per failure-free period"},
  };

  sim::SweepOptions options;
  options.base_seed = static_cast<std::uint64_t>(seed.value());
  options.replicates = static_cast<std::size_t>(replicates);
  options.jobs = static_cast<std::size_t>(jobs.value());
  options.ci_level = level.value();
  if (!args.flag("all-metrics")) {
    for (const auto& [name, display] : kHeadlines) options.metrics.emplace_back(name);
  }
  auto sweep = sim::run_sweep(variants, options);
  if (!sweep.ok()) return sweep.error();

  out << "sweep: " << replicates << " replicates per variant, base seed "
      << seed.value() << ", " << report::fmt_percent(100.0 * level.value(), 0)
      << " bootstrap CIs\n";
  for (const auto& variant : sweep.value().variants) {
    out << "\n== " << variant.label << " ==\n";
    report::Table table({"Metric", "n", "Mean", "Stddev", "CI low", "CI high"});
    table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                         report::Align::kRight, report::Align::kRight, report::Align::kRight});
    const auto add_metric = [&table](const std::string& display,
                                     const sim::MetricAggregate& aggregate) {
      table.add_row({display, std::to_string(aggregate.n), report::fmt(aggregate.mean, 3),
                     report::fmt(aggregate.stddev, 3), report::fmt(aggregate.mean_ci.low, 3),
                     report::fmt(aggregate.mean_ci.high, 3)});
    };
    if (args.flag("all-metrics")) {
      for (const auto& aggregate : variant.aggregates) add_metric(aggregate.name, aggregate);
    } else {
      for (const auto& [name, display] : kHeadlines) {
        if (const auto* aggregate = variant.find(name)) add_metric(display, *aggregate);
      }
    }
    out << table.render();
  }
  return {};
}

// --- repairs ----------------------------------------------------------------

Result<std::vector<ops::RepairPolicyVariant>> resolve_repair_policies(const ParsedArgs& args) {
  auto config_text = args.get("config");
  if (!config_text.ok()) return config_text.error();
  auto base = ops::parse_repair_config(config_text.value());
  if (!base.ok()) return base.error().with_context("--config");
  if (args.has("policy")) {
    auto name = args.get("policy");
    if (!name.ok()) return name.error();
    auto policy = ops::parse_repair_policy(name.value());
    if (!policy.ok()) return policy.error().with_context("--policy");
    ops::RepairShopConfig config = base.value();
    config.policy = policy.value();
    std::vector<ops::RepairPolicyVariant> variants;
    variants.push_back({std::string(ops::to_string(policy.value())), std::move(config)});
    return variants;
  }
  return ops::default_policy_variants(base.value());
}

ArgParser make_repairs_parser() {
  ArgParser parser(
      "repairs",
      "Compare repair policies with the discrete-event repair shop.  Without a log, sweeps "
      "seeded replicates of the machine model and reports per-policy bootstrap CIs for "
      "availability and goodput; with a log, schedules it once per policy and prints a "
      "side-by-side summary.");
  parser.positional({"log.csv", "failure log (CSV or snapshot); omit to sweep the model", false});
  parser.option({"machine", "NAME", "tsubame-2 or tsubame-3", std::string("tsubame-3")});
  parser.option({"config", "STR",
                 "shop config: crews=N,policy=P,spares=CAT:N:LEAD;...,throttle=N,boost=F,"
                 "window=OFF/PERIOD/DUR",
                 std::string("crews=2,spares=GPU:2:336,throttle=1,boost=0.95")});
  parser.option({"policy", "NAME",
                 "score one policy (fifo, criticality-first, batched-windows) instead of all", {}});
  parser.option({"replicates", "N", "replicates (seeds) per policy in sweep mode",
                 std::string("20")});
  parser.option({"quick", "", "smoke preset: 4 replicates (overrides --replicates)", {}});
  parser.option({"jobs", "N",
                 "worker threads across replicates (0 = all hardware threads); results are "
                 "bit-identical for every value",
                 std::string("1")});
  parser.option({"seed", "N",
                 "base seed; sweep replicate r runs on a deterministic (seed, r) fork, direct "
                 "mode forks it for the goodput replay",
                 std::string("1")});
  parser.option({"level", "P", "confidence level for the aggregate CIs", std::string("0.95")});
  parser.option({"mix-jobs", "N", "synthetic job-mix size for goodput scoring",
                 std::string("400")});
  parser.option({"failures", "N", "override the calibrated failure count (sweep mode)", {}});
  parser.option(strict_option());
  parser.option({"no-bursts", "", "disable temporal burst clustering (sweep mode)", {}});
  parser.option({"no-heterogeneity", "", "disable the lemon-node hazard mix (sweep mode)", {}});
  parser.option({"no-slot-weights", "", "disable non-uniform GPU slot selection (sweep mode)", {}});
  parser.option({"no-seasonal", "", "disable monthly intensity/TTR modulation (sweep mode)", {}});
  return parser;
}

Result<void> run_repairs(const ParsedArgs& args, std::ostream& out) {
  auto policies = resolve_repair_policies(args);
  if (!policies.ok()) return policies.error();
  auto seed = args.get_int("seed");
  if (!seed.ok()) return seed.error();
  auto mix_jobs = args.get_int("mix-jobs");
  if (!mix_jobs.ok()) return mix_jobs.error();
  if (mix_jobs.value() <= 0)
    return Error(ErrorKind::kDomain, "--mix-jobs must be positive");
  ops::JobMixSpec mix;
  mix.jobs = static_cast<std::size_t>(mix_jobs.value());

  if (!args.positionals().empty()) {
    // Direct mode: schedule the given log once per policy.
    auto log = load_log(args);
    if (!log.ok()) return log.error();
    out << "repair shop on " << log.value().size() << " failures ("
        << log.value().spec().name << ")\n\n";
    report::Table table({"Policy", "Avail", "Eff MTTR (h)", "Mean wait (h)", "Crew util",
                         "Peak queue", "Stockouts", "Unfinished", "Goodput (ckpt)"});
    table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                         report::Align::kRight, report::Align::kRight, report::Align::kRight,
                         report::Align::kRight, report::Align::kRight, report::Align::kRight});
    for (const auto& policy : policies.value()) {
      auto shop = ops::run_repair_shop(log.value(), policy.config);
      if (!shop.ok()) return shop.error().with_context("policy '" + policy.label + "'");
      const ops::RepairShopResult& schedule = shop.value();
      const data::FailureLog effective = ops::effective_log(log.value(), schedule);
      double eff_mttr = 0.0;
      if (auto report = ops::analyze_availability(effective); report.ok())
        eff_mttr = report.value().mttr_hours;
      double goodput = 0.0;
      if (auto impact = ops::replay_job_impact(effective, mix,
                                               static_cast<std::uint64_t>(seed.value()));
          impact.ok())
        goodput = impact.value().goodput_ckpt;
      table.add_row({policy.label, report::fmt(schedule.availability, 5),
                     report::fmt(eff_mttr, 2), report::fmt(schedule.mean_wait_hours, 2),
                     report::fmt(schedule.crew_utilization, 3),
                     std::to_string(schedule.peak_queue_depth),
                     std::to_string(schedule.stockouts),
                     std::to_string(schedule.in_flight_at_horizon +
                                    schedule.unstarted_at_horizon),
                     report::fmt(goodput, 5)});
    }
    out << table.render();
    return {};
  }

  // Sweep mode: score each policy over seeded replicates of the model.
  auto model = resolve_model(args);
  if (!model.ok()) return model.error();
  auto replicates_arg = args.get_int("replicates");
  if (!replicates_arg.ok()) return replicates_arg.error();
  const long long replicates = args.flag("quick") ? 4 : replicates_arg.value();
  if (replicates <= 0)
    return Error(ErrorKind::kDomain, "--replicates must be positive");
  auto jobs = args.get_int("jobs");
  if (!jobs.ok()) return jobs.error();
  if (jobs.value() < 0)
    return Error(ErrorKind::kDomain, "--jobs must be >= 0");
  auto level = args.get_double("level");
  if (!level.ok()) return level.error();

  ops::RepairSweepOptions options;
  options.sweep.base_seed = static_cast<std::uint64_t>(seed.value());
  options.sweep.replicates = static_cast<std::size_t>(replicates);
  options.sweep.jobs = static_cast<std::size_t>(jobs.value());
  options.sweep.ci_level = level.value();
  options.job_mix = mix;

  // The base config is what every variant shares; re-parse it for the
  // report header (resolve_repair_policies validated it already).
  auto base = ops::parse_repair_config(args.get("config").value());
  if (!base.ok()) return base.error().with_context("--config");
  auto sweep = ops::run_repair_policy_sweep(model.value(), std::move(policies).value(), options);
  if (!sweep.ok()) return sweep.error();
  out << report::render_repair_comparison(sweep.value(), base.value(), options.sweep);
  return {};
}

// --- triage -----------------------------------------------------------------

ArgParser make_triage_parser() {
  ArgParser parser("triage", "Operator report: impact ranking and repeat-failure nodes.");
  parser.positional(log_positional());
  parser.option(strict_option());
  parser.option({"top", "N", "rows to show per section", std::string("10")});
  return parser;
}

Result<void> run_triage(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto top = args.get_int("top");
  if (!top.ok()) return top.error();
  auto availability = ops::analyze_availability(log.value());
  if (!availability.ok()) return availability.error();

  out << "unit availability " << report::fmt(availability.value().availability, 4) << ", MTTR "
      << report::fmt(availability.value().mttr_hours, 1) << " h, total downtime "
      << report::fmt(availability.value().total_downtime_hours, 0) << " node-hours\n\n";

  report::Table impact({"Category", "Failures", "Downtime share", "Impact ratio", "Worst TTR"});
  impact.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                        report::Align::kRight, report::Align::kRight});
  std::size_t shown = 0;
  for (const auto& row : availability.value().by_category) {
    if (static_cast<long long>(shown++) >= top.value()) break;
    impact.add_row({std::string(data::to_string(row.category)), std::to_string(row.failures),
                    report::fmt_percent(row.downtime_percent, 1),
                    report::fmt(row.impact_ratio, 2), report::fmt(row.max_ttr_hours, 0) + " h"});
  }
  out << impact.render() << "\n";

  auto survival = analysis::analyze_node_survival(data::LogIndex(log.value()));
  if (survival.ok()) {
    out << "repeat-offender test (log-rank): ";
    if (survival.value().repeat_offender_test.has_value()) {
      out << "p = " << report::fmt(survival.value().repeat_offender_test->p_value, 4)
          << (survival.value().failed_nodes_refail_faster
                  ? " -> failed nodes re-fail significantly faster\n"
                  : " -> no significant repeat-offender effect\n");
    } else {
      out << "not computable on this log\n";
    }
  }

  auto policy = ops::evaluate_quarantine_policy(log.value(), 2);
  if (policy.ok()) {
    out << "servicing nodes after their 2nd failure would have avoided "
        << report::fmt_percent(policy.value().avoided_failure_percent, 1) << " of failures ("
        << report::fmt(policy.value().avoided_downtime_hours, 0) << " node-hours)\n";
  }

  if (auto capacity = ops::forecast_capacity(log.value()); capacity.ok()) {
    out << "capacity: expect " << report::fmt(capacity.value().expected_down_nodes, 1)
        << " nodes down at any time (measured "
        << report::fmt(capacity.value().measured_mean_down_nodes, 1) << ", peak "
        << report::fmt(capacity.value().measured_peak_down_nodes, 0) << "); provision "
        << capacity.value().provision_for_99 << " spares-in-place for 99% coverage\n";
  }
  return {};
}

// --- figures -------------------------------------------------------------

ArgParser make_figures_parser() {
  ArgParser parser("figures", "Export every paper-figure series for a log as CSV files.");
  parser.positional(log_positional());
  parser.option({"outdir", "DIR", "output directory", std::string("figures")});
  parser.option(strict_option());
  parser.option(jobs_option());
  return parser;
}

Result<void> run_figures(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto outdir = args.get("outdir");
  if (!outdir.ok()) return outdir.error();
  auto options = resolve_study_options(args);
  if (!options.ok()) return options.error();
  const data::LogIndex index(log.value());
  auto study = analysis::run_study(index, options.value());
  if (!study.ok()) return study.error();
  const report::MachineInput machine{log.value(), index, study.value()};
  std::size_t written = 0;
  for (const auto& entry : report::paper_figures()) {
    const auto figures = report::extract_figures(entry, {&machine, 1});
    if (auto result = report::export_figures(figures, outdir.value()); !result.ok()) return result;
    written += figures.size();
  }
  out << "wrote " << written << " figure CSVs to " << outdir.value() << "/\n";
  return {};
}

// --- checkpoint ---------------------------------------------------------

ArgParser make_checkpoint_parser() {
  ArgParser parser("checkpoint", "Young/Daly checkpoint plan from a log's measured MTBF.");
  parser.positional(log_positional());
  parser.option({"cost-hours", "H", "time to write one checkpoint", std::string("0.25")});
  parser.option(strict_option());
  return parser;
}

Result<void> run_checkpoint(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto cost = args.get_double("cost-hours");
  if (!cost.ok()) return cost.error();
  auto tbf = analysis::analyze_tbf(data::LogIndex(log.value()));
  if (!tbf.ok()) return tbf.error();
  auto plan = ops::plan_checkpointing(cost.value(), tbf.value().exposure_mtbf_hours);
  if (!plan.ok()) return plan.error();
  out << "measured MTBF: " << report::fmt(plan.value().mtbf_hours, 1) << " h\n"
      << "checkpoint cost: " << report::fmt(plan.value().checkpoint_cost_hours * 60.0, 0)
      << " min\n"
      << "Young interval: " << report::fmt(plan.value().young_hours, 2) << " h\n"
      << "Daly interval:  " << report::fmt(plan.value().daly_hours, 2) << " h\n"
      << "expected waste at Daly optimum: "
      << report::fmt_percent(100.0 * plan.value().waste_at_daly, 2) << " (efficiency "
      << report::fmt_percent(100.0 * plan.value().efficiency_at_daly, 2) << ")\n";
  return {};
}

// --- spares -----------------------------------------------------------------

ArgParser make_spares_parser() {
  ArgParser parser("spares", "Spare-pool sizing for one failure category.");
  parser.positional(log_positional());
  parser.option({"category", "NAME", "failure category (e.g. GPU, SSD)", std::string("GPU")});
  parser.option({"lead-days", "D", "restock lead time in days", std::string("14")});
  parser.option({"target", "P", "max acceptable stockout probability", std::string("0.05")});
  parser.option(strict_option());
  return parser;
}

Result<void> run_spares(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto category_name = args.get("category");
  if (!category_name.ok()) return category_name.error();
  auto category = data::parse_category(category_name.value());
  if (!category.ok()) return category.error();
  auto lead = args.get_double("lead-days");
  if (!lead.ok()) return lead.error();
  auto target = args.get_double("target");
  if (!target.ok()) return target.error();

  auto recommended =
      ops::recommend_spares(log.value(), category.value(), target.value(), lead.value() * 24.0);
  if (!recommended.ok()) return recommended.error();
  auto sim = ops::simulate_spares(log.value(), category.value(),
                                  {recommended.value(), lead.value() * 24.0});
  if (!sim.ok()) return sim.error();
  out << data::to_string(category.value()) << ": " << sim.value().demand_events
      << " part demands; keep " << recommended.value() << " spares on site ("
      << report::fmt(lead.value(), 0) << "-day restock) -> stockout probability "
      << report::fmt_percent(100.0 * sim.value().stockout_probability, 1) << ", peak "
      << sim.value().peak_outstanding << " parts on order\n";
  return {};
}

// --- predict ---------------------------------------------------------------

ArgParser make_predict_parser() {
  ArgParser parser("predict", "Backtest node-failure predictors on a log.");
  parser.positional(log_positional());
  parser.option({"top-k", "K", "watchlist size", std::string("20")});
  parser.option({"warmup", "F", "fraction of the log used as warm-up", std::string("0.3")});
  parser.option(strict_option());
  return parser;
}

Result<void> run_predict(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto top_k = args.get_int("top-k");
  if (!top_k.ok()) return top_k.error();
  auto warmup = args.get_double("warmup");
  if (!warmup.ok()) return warmup.error();
  if (top_k.value() <= 0)
    return Error(ErrorKind::kDomain, "--top-k must be positive");
  auto reports = predict::compare_predictors(log.value(), warmup.value(),
                                             static_cast<std::size_t>(top_k.value()));
  if (!reports.ok()) return reports.error();

  report::Table table({"Predictor", "Queries", "Hit@" + std::to_string(top_k.value()),
                       "Lift over random", "MRR"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight});
  for (const auto& report : reports.value()) {
    table.add_row({report.predictor, std::to_string(report.queries),
                   report::fmt_percent(100.0 * report.hit_rate_at_k, 1),
                   report::fmt(report.lift_at_k, 1) + "x",
                   report::fmt(report.mean_reciprocal_rank, 4)});
  }
  out << table.render();
  out << "\nreading: a top-" << top_k.value() << " watchlist from the best predictor catches "
      << report::fmt_percent(100.0 * reports.value().front().hit_rate_at_k, 1)
      << " of failures before they happen.\n";
  return {};
}

// --- report ----------------------------------------------------------------

ArgParser make_report_parser() {
  ArgParser parser("report", "Render the full study as a markdown report.");
  parser.positional(log_positional());
  parser.option({"out", "FILE", "write to a file instead of stdout", {}});
  parser.option({"title", "TEXT", "report title", {}});
  parser.option({"no-extensions", "", "omit survival/trends/racks sections", {}});
  parser.option(strict_option());
  parser.option(jobs_option());
  return parser;
}

Result<void> run_report(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto study_options = resolve_study_options(args);
  if (!study_options.ok()) return study_options.error();
  report::MarkdownOptions options;
  if (args.has("title")) options.title = args.get("title").value();
  options.include_extensions = !args.flag("no-extensions");
  options.jobs = study_options.value().jobs;
  auto markdown = report::render_markdown_report(log.value(), options);
  if (!markdown.ok()) return markdown.error();
  if (args.has("out")) {
    const std::string path = args.get("out").value();
    std::ofstream file(path, std::ios::binary);
    if (!file)
      return Error(ErrorKind::kIo, "cannot open report file: " + path);
    file << markdown.value();
    if (!file.flush())
      return Error(ErrorKind::kIo, "write error on report file: " + path);
    out << "wrote markdown report to " << path << "\n";
  } else {
    out << markdown.value();
  }
  return {};
}

// --- import ----------------------------------------------------------------

ArgParser make_import_parser() {
  ArgParser parser("import",
                   "Convert a legacy-v1 operator log (see src/data/legacy_import.h) to the "
                   "canonical CSV schema.");
  parser.positional({"legacy.log", "legacy-v1 input file", true});
  parser.positional({"out.csv", "canonical CSV output path", true});
  parser.option(strict_option());
  return parser;
}

Result<void> run_import(const ParsedArgs& args, std::ostream& out) {
  const auto policy = args.flag("strict") ? data::ReadPolicy::kStrict : data::ReadPolicy::kLenient;
  auto report = data::import_legacy_v1_file(args.positionals()[0], policy);
  if (!report.ok()) return report.error();
  for (const auto& row_error : report.value().row_errors) {
    out << "warning: skipped line " << row_error.line_number << ": " << row_error.message
        << "\n";
  }
  if (auto written = data::write_log_file(args.positionals()[1], report.value().log);
      !written.ok())
    return written.error();
  out << "imported " << report.value().log.size() << " failures ("
      << report.value().row_errors.size() << " lines skipped) -> " << args.positionals()[1]
      << "\n";
  return {};
}

// --- pack / unpack ---------------------------------------------------------

ArgParser make_pack_parser() {
  ArgParser parser("pack",
                   "Pack a failure log into a columnar .tsnap snapshot: an mmap-able binary "
                   "with per-section checksums that loads orders of magnitude faster than "
                   "CSV (DESIGN.md section 14).");
  parser.positional({"log.csv", "input log: canonical CSV (or an existing snapshot)", true});
  parser.positional({"out.tsnap", "snapshot output path (written atomically)", true});
  parser.option(
      {"verify", "", "re-open the written file and require a byte-identical re-pack", {}});
  parser.option(strict_option());
  return parser;
}

Result<void> run_pack(const ParsedArgs& args, std::ostream& out) {
  const std::string& out_path = args.positionals()[1];
  if (auto ok = validate_writable_path(out_path); !ok.ok()) return ok.error();
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  const std::string bytes = data::pack_columnar(log.value());
  if (auto written = data::write_columnar_file(out_path, bytes); !written.ok())
    return written.error();
  out << "packed " << log.value().size() << " failures (" << bytes.size() << " bytes) -> "
      << out_path << "\n";
  if (args.flag("verify")) {
    auto reloaded = data::ColumnarSnapshot::open(out_path);
    if (!reloaded.ok()) return reloaded.error().with_context("verify");
    if (data::pack_columnar(reloaded.value()->to_log()) != bytes)
      return Error(ErrorKind::kInternal,
                   "verify: re-packing the loaded snapshot did not reproduce the file");
    out << "verify: OK (load -> re-pack is byte-identical, "
        << (reloaded.value()->mapped() ? "mmap" : "stream") << " load)\n";
  }
  return {};
}

ArgParser make_unpack_parser() {
  ArgParser parser("unpack",
                   "Expand a columnar .tsnap snapshot back to the canonical CSV schema.");
  parser.positional({"in.tsnap", "packed snapshot", true});
  parser.positional({"out.csv", "CSV output path", true});
  return parser;
}

Result<void> run_unpack(const ParsedArgs& args, std::ostream& out) {
  if (auto ok = validate_writable_path(args.positionals()[1]); !ok.ok()) return ok.error();
  auto snapshot = data::ColumnarSnapshot::open(args.positionals()[0]);
  if (!snapshot.ok()) return snapshot.error();
  const data::FailureLog log = snapshot.value()->to_log();
  if (auto written = data::write_log_file(args.positionals()[1], log); !written.ok())
    return written.error();
  out << "unpacked " << log.size() << " failures -> " << args.positionals()[1] << "\n";
  return {};
}

// --- trends ----------------------------------------------------------------

ArgParser make_trends_parser() {
  ArgParser parser("trends", "Rolling-window MTBF/MTTR trends over the system lifetime.");
  parser.positional(log_positional());
  parser.option({"window-days", "D", "rolling window length", std::string("60")});
  parser.option({"step-days", "D", "window step", std::string("30")});
  parser.option(strict_option());
  return parser;
}

Result<void> run_trends(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto window = args.get_double("window-days");
  if (!window.ok()) return window.error();
  auto step = args.get_double("step-days");
  if (!step.ok()) return step.error();
  auto trends = analysis::analyze_rolling_trends(data::LogIndex(log.value()), window.value(),
                                                 step.value());
  if (!trends.ok()) return trends.error();

  report::Table table({"Window center", "Failures", "Failures/day", "MTBF", "MTTR"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight});
  for (const auto& w : trends.value().windows) {
    table.add_row({format_date(log.value().spec().log_start.plus_hours(w.center_hours)),
                   std::to_string(w.failures), report::fmt(w.failures_per_day, 2),
                   w.failures > 0 ? report::fmt(w.mtbf_hours, 1) + " h" : "-",
                   w.failures > 0 ? report::fmt(w.mttr_hours, 1) + " h" : "-"});
  }
  out << table.render() << "\n";
  out << "failure-rate trend: " << report::fmt(trends.value().rate_trend.slope * 24.0 * 365.0, 3)
      << " failures/day per year (p = "
      << report::fmt(trends.value().rate_trend.slope_p_value, 3) << ")\n";
  out << "MTTR trend: " << report::fmt(trends.value().mttr_trend.slope * 24.0 * 365.0, 2)
      << " h per year (p = " << report::fmt(trends.value().mttr_trend.slope_p_value, 3) << ")\n";
  out << "early/late quarter failure-rate ratio: "
      << report::fmt(trends.value().early_late_rate_ratio, 2)
      << (trends.value().early_late_rate_ratio > 1.3
              ? " (burn-in: the machine got more reliable)\n"
              : trends.value().early_late_rate_ratio < 0.7
                    ? " (wear-out: the machine is degrading)\n"
                    : " (stationary)\n");
  return {};
}

// --- racks -----------------------------------------------------------------

ArgParser make_racks_parser() {
  ArgParser parser("racks", "Rack-level spatial distribution of failures.");
  parser.positional(log_positional());
  parser.option({"top", "N", "racks to list", std::string("10")});
  parser.option(strict_option());
  return parser;
}

Result<void> run_racks(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto top = args.get_int("top");
  if (!top.ok()) return top.error();
  auto racks = analysis::analyze_racks(data::LogIndex(log.value()));
  if (!racks.ok()) return racks.error();

  report::Table table({"Rack", "Failures", "Share", "Failures/node"});
  table.set_alignment({report::Align::kRight, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight});
  long long shown = 0;
  for (const auto& rack : racks.value().racks) {
    if (shown++ >= top.value()) break;
    table.add_row({std::to_string(rack.rack), std::to_string(rack.failures),
                   report::fmt_percent(rack.percent, 1), report::fmt(rack.per_node_rate, 3)});
  }
  out << table.render() << "\n";
  out << racks.value().racks_with_failures << " of " << racks.value().total_racks
      << " racks saw failures; " << racks.value().racks_holding_half
      << " racks hold half of them (Gini " << report::fmt(racks.value().gini, 3) << ")\n";
  out << "uniformity chi-square p-value: "
      << report::fmt(racks.value().uniformity_p_value, 4)
      << (racks.value().uniformity_p_value < 0.05 ? " -> spatially non-uniform\n"
                                                  : " -> consistent with uniform\n");
  return {};
}

// --- couplings --------------------------------------------------------------

ArgParser make_couplings_parser() {
  ArgParser parser("couplings",
                   "Cross-category lead-lag couplings: does a failure of one category raise "
                   "the short-term rate of another?");
  parser.positional(log_positional());
  parser.option({"window-hours", "H", "post-event window", std::string("72")});
  parser.option({"min-events", "N", "ignore categories with fewer events", std::string("8")});
  parser.option({"top", "N", "pairs to show", std::string("10")});
  parser.option(strict_option());
  return parser;
}

Result<void> run_couplings(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto window = args.get_double("window-hours");
  if (!window.ok()) return window.error();
  auto min_events = args.get_int("min-events");
  if (!min_events.ok()) return min_events.error();
  auto top = args.get_int("top");
  if (!top.ok()) return top.error();
  if (min_events.value() < 1)
    return Error(ErrorKind::kDomain, "--min-events must be >= 1");
  auto analysis = analysis::analyze_lead_lag(data::LogIndex(log.value()), window.value(),
                                             static_cast<std::size_t>(min_events.value()));
  if (!analysis.ok()) return analysis.error();

  report::Table table({"Leader -> Follower", "Observed", "Expected", "Lift", "z"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight});
  long long shown = 0;
  for (const auto& pair : analysis.value().pairs) {
    if (shown++ >= top.value()) break;
    table.add_row({std::string(data::to_string(pair.leader)) + " -> " +
                       std::string(data::to_string(pair.follower)),
                   report::fmt(pair.observed, 0), report::fmt(pair.expected, 1),
                   report::fmt(pair.lift, 2), report::fmt(pair.z_score, 1)});
  }
  out << table.render();
  out << "\nz > ~3 marks a coupling unlikely under independence; self-pairs measure\n"
         "burstiness of a single category.\n";
  return {};
}

// --- watch ------------------------------------------------------------------

ArgParser make_watch_parser() {
  ArgParser parser("watch",
                   "Replay a failure log through the streaming monitor, printing alerts and "
                   "periodic health summaries.");
  parser.positional(log_positional());
  parser.option({"reorder-hours", "H", "reorder horizon of the event stream", std::string("24")});
  parser.option({"window-days", "D", "rolling MTBF/MTTR window length", std::string("60")});
  parser.option({"step-days", "D", "rolling window step", std::string("30")});
  parser.option({"rate-tau-days", "D", "EWMA rate time constant", std::string("7")});
  parser.option({"burst-window-hours", "H", "multi-GPU burst detection window",
                 std::string("72")});
  parser.option({"burst-size", "N", "multi-GPU events in the window that raise an alert",
                 std::string("3")});
  parser.option({"expected-failures", "N",
                 "historical failure count calibrating the MTBF/rate baselines "
                 "(default: the machine's paper count)",
                 {}});
  parser.option({"summary-every", "N", "print a health line every N failures (0 = off)",
                 std::string("100")});
  parser.option({"pace-ms", "MS", "replay delay per event in milliseconds (0 = instant)",
                 std::string("0")});
  parser.option({"max-lag-events", "N",
                 "SLO ceiling on alert-engine lag (accepted minus released events); the final "
                 "summary reports the objective's burn state",
                 std::string("512")});
  parser.option(strict_option());
  return parser;
}

Result<void> run_watch(const ParsedArgs& args, std::ostream& out) {
  auto log = load_log(args);
  if (!log.ok()) return log.error();
  auto reorder = args.get_double("reorder-hours");
  if (!reorder.ok()) return reorder.error();
  auto window_days = args.get_double("window-days");
  if (!window_days.ok()) return window_days.error();
  auto step_days = args.get_double("step-days");
  if (!step_days.ok()) return step_days.error();
  auto rate_tau = args.get_double("rate-tau-days");
  if (!rate_tau.ok()) return rate_tau.error();
  auto burst_window = args.get_double("burst-window-hours");
  if (!burst_window.ok()) return burst_window.error();
  auto burst_size = args.get_int("burst-size");
  if (!burst_size.ok()) return burst_size.error();
  auto summary_every = args.get_int("summary-every");
  if (!summary_every.ok()) return summary_every.error();
  auto pace_ms = args.get_int("pace-ms");
  if (!pace_ms.ok()) return pace_ms.error();
  auto max_lag = args.get_int("max-lag-events");
  if (!max_lag.ok()) return max_lag.error();
  if (max_lag.value() <= 0)
    return Error(ErrorKind::kDomain, "--max-lag-events must be positive");
  if (burst_size.value() <= 0)
    return Error(ErrorKind::kDomain, "--burst-size must be positive");
  if (summary_every.value() < 0 || pace_ms.value() < 0)
    return Error(ErrorKind::kDomain, "--summary-every and --pace-ms must be >= 0");

  const data::MachineSpec& spec = log.value().spec();
  std::size_t expected_failures = stream::paper_expected_failures(spec);
  if (args.has("expected-failures")) {
    auto expected = args.get_int("expected-failures");
    if (!expected.ok()) return expected.error();
    if (expected.value() <= 0)
      return Error(ErrorKind::kDomain, "--expected-failures must be positive");
    expected_failures = static_cast<std::size_t>(expected.value());
  }

  stream::StreamConfig stream_config;
  stream_config.reorder_horizon_hours = reorder.value();
  auto events = stream::EventStream::create(spec, stream_config);
  if (!events.ok()) return events.error();

  stream::MonitorConfig monitor_config;
  monitor_config.window_days = window_days.value();
  monitor_config.step_days = step_days.value();
  monitor_config.rate_tau_hours = rate_tau.value() * 24.0;
  monitor_config.burst_window_hours = burst_window.value();
  auto monitor = stream::HealthMonitor::create(spec, monitor_config);
  if (!monitor.ok()) return monitor.error();

  auto engine = stream::AlertEngine::create(stream::default_rules(
      spec, {expected_failures, static_cast<double>(burst_size.value())}));
  if (!engine.ok()) return engine.error();

  out << "watching " << spec.name << ": " << log.value().size() << " failures, reorder horizon "
      << report::fmt(reorder.value(), 0) << " h, " << engine.value().rules().size()
      << " alert rules\n";

  const auto print_summary = [&](const stream::HealthSnapshot& health) {
    out << "[" << format_time(health.as_of) << "] events=" << health.events
        << " rate=" << report::fmt(health.ewma_failures_per_day, 2) << "/day";
    if (health.window.has_value() && health.window->failures > 0)
      out << " window-mtbf=" << report::fmt(health.window->mtbf_hours, 1) << "h";
    out << " p95-ttr=" << report::fmt(health.ttr_p95_hours, 1) << "h"
        << " burst=" << health.multi_gpu_burst_size << "\n";
  };

  // Current estimator values mirrored as gauges, so `watch --metrics`
  // exports the monitor's live state next to the stream/alert counters.
  static obs::Gauge rate_gauge = obs::gauge("health.ewma_failures_per_day");
  static obs::Gauge p95_gauge = obs::gauge("health.ttr_p95_hours");
  static obs::Gauge burst_gauge = obs::gauge("health.multi_gpu_burst_size");
  static obs::Gauge skew_gauge = obs::gauge("health.slot_skew");
  static obs::Gauge events_gauge = obs::gauge("health.events");
  static obs::Gauge active_gauge = obs::gauge("alerts.active");
  static obs::Gauge lag_gauge = obs::gauge("watch.lag_events");

  // Alert-engine lag (records accepted into the reorder buffer but not
  // yet released to the monitor) as a staleness SLO: any evaluation tick
  // with lag above --max-lag-events burns the budget.
  obs::SloEngine slo;
  {
    obs::SloObjective lag_objective;
    lag_objective.name = "watch.alert_lag";
    lag_objective.kind = obs::SloKind::kStalenessMax;
    lag_objective.metric = "watch.lag_events";
    lag_objective.threshold = static_cast<double>(max_lag.value());
    lag_objective.budget = 0.1;
    slo.add_objective(std::move(lag_objective));
  }
  slo.tick(obs::collect_metrics(), obs::now_ns());  // baseline entry

  std::uint64_t processed = 0;
  const auto consume = [&](const data::FailureRecord& record) {
    OBS_SPAN("watch.consume");
    monitor.value().observe(record);
    const auto health = monitor.value().snapshot();
    for (const auto& alert : engine.value().evaluate(health))
      out << stream::format_alert(alert) << "\n";
    if (obs::enabled()) {
      rate_gauge.set(health.ewma_failures_per_day);
      p95_gauge.set(health.ttr_p95_hours);
      burst_gauge.set(static_cast<double>(health.multi_gpu_burst_size));
      skew_gauge.set(health.slot_skew);
      events_gauge.set(static_cast<double>(health.events));
      active_gauge.set(static_cast<double>(engine.value().active().size()));
      const auto& lag_stats = events.value().stats();
      lag_gauge.set(static_cast<double>(lag_stats.accepted - lag_stats.released));
    }
    ++processed;
    if (summary_every.value() > 0 &&
        processed % static_cast<std::uint64_t>(summary_every.value()) == 0)
      print_summary(health);
  };

  stream::StreamCursor cursor(events.value());
  std::uint64_t offered = 0;
  for (const auto& record : log.value().records()) {
    if (pace_ms.value() > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms.value()));
    auto outcome = events.value().offer(record);
    if (!outcome.ok()) return outcome.error();
    cursor.drain(consume);
    if (++offered % 256 == 0) slo.tick(obs::collect_metrics(), obs::now_ns());
  }
  events.value().finish();
  cursor.drain(consume);
  monitor.value().finish();
  slo.tick(obs::collect_metrics(), obs::now_ns());

  const auto& stats = events.value().stats();
  const auto health = monitor.value().snapshot();
  out << "\n-- final --\n";
  print_summary(health);
  out << "stream: offered=" << stats.offered << " released=" << stats.released
      << " quarantined=" << (stats.quarantined_invalid + stats.quarantined_late)
      << " duplicates=" << stats.rejected_duplicates << "\n";
  for (const auto& entry : events.value().quarantine())
    out << "quarantined: " << entry.error.to_string() << "\n";
  out << "alerts raised: " << engine.value().raised_total() << ", cleared "
      << engine.value().cleared_total();
  const auto active = engine.value().active();
  if (!active.empty()) {
    out << "; still active:";
    for (const auto& name : active) out << " " << name;
  }
  out << "\n";
  const auto rules_view = engine.value().rules();
  const auto activity = engine.value().activity();
  for (std::size_t i = 0; i < rules_view.size(); ++i) {
    if (activity[i].fired == 0 && activity[i].cleared == 0) continue;
    out << "  rule " << rules_view[i].name << ": fired " << activity[i].fired << ", cleared "
        << activity[i].cleared << "\n";
  }
  if (auto trends = monitor.value().trends(); trends.ok()) {
    out << "failure-rate trend: "
        << report::fmt(trends.value().rate_trend.slope * 24.0 * 365.0, 3)
        << " failures/day per year (p = "
        << report::fmt(trends.value().rate_trend.slope_p_value, 3) << ")\n";
  }
  for (const auto& status : slo.evaluate(obs::now_ns()))
    out << "slo " << status.objective << ": " << obs::slo_state_name(status.state) << " ("
        << status.reason << ")\n";
  return {};
}

// --- profile ----------------------------------------------------------------

ArgParser make_profile_parser() {
  ArgParser parser("profile",
                   "Run any command with spans on, discarding its output, and print the share "
                   "of cli.<command> its child spans cover, then the spans by self time.");
  parser.option({"runs", "N", "times to run the command", std::string("1")});
  parser.option({"top", "N", "rows in the self-time table", std::string("15")});
  parser.passthrough({"command", "the command line to profile, e.g. analyze log.csv --jobs 4",
                      true});
  return parser;
}

Result<void> run_profile(const ParsedArgs& args, std::ostream& out) {
  auto runs = args.get_int("runs");
  if (!runs.ok()) return runs.error();
  auto top = args.get_int("top");
  if (!top.ok()) return top.error();
  if (runs.value() <= 0 || top.value() <= 0)
    return Error(ErrorKind::kDomain, "--runs and --top must be positive");
  const std::vector<std::string>& line = args.passthrough();
  const Command* command = find_command(line.front());
  if (command == nullptr)
    return Error(ErrorKind::kNotFound, "unknown command '" + line.front() + "'");
  auto parsed = parser_for(*command).parse({line.begin() + 1, line.end()});
  if (!parsed.ok()) return parsed.error().with_context(command->name);

  // With obs already on, run_command leaves the recorders alone, so the
  // table (and any --trace file the command writes) covers every run.
  obs::reset_trace();
  obs::reset_metrics();
  obs::set_enabled(true);
  std::ostream discarded(nullptr);
  for (long long run = 0; run < runs.value(); ++run) {
    if (auto result = run_command(*command, parsed.value(), discarded); !result.ok())
      return result;
  }

  const auto snapshot = obs::collect_trace();
  const auto entries = obs::profile(snapshot);
  out << "profile:";
  for (const auto& token : line) out << " " << token;
  out << " (" << runs.value() << " run" << (runs.value() == 1 ? "" : "s") << ", "
      << snapshot.span_count() << " spans";
  if (snapshot.dropped_total() > 0) out << ", " << snapshot.dropped_total() << " dropped";
  out << ")\n";
  const std::string root = "cli." + command->name;
  for (const auto& entry : entries) {
    if (entry.name != root || entry.total_ns == 0) continue;
    const double total = static_cast<double>(entry.total_ns);
    out << "child spans cover " << report::fmt_percent(100.0 * (1.0 - entry.self_ns / total), 1)
        << " of " << root << " (" << report::fmt(total * 1e-9, 3) << " s)\n";
  }
  out << "\n" << obs::profile_table(entries, static_cast<std::size_t>(top.value()));
  return {};
}

// --- serve ------------------------------------------------------------------

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

ArgParser make_serve_parser() {
  ArgParser parser("serve",
                   "Run the multi-tenant fleet service: line-protocol + HTTP ingest/query "
                   "daemon with epoch-indexed snapshots and a shared result cache.");
  parser.option({"host", "ADDR", "listen address", std::string("127.0.0.1")});
  parser.option({"port", "N", "TCP port (0 = kernel-assigned, printed on startup)",
                 std::string("0")});
  parser.option({"cache-capacity", "N", "query-cache entries across all tenants (0 = off)",
                 std::string("256")});
  parser.option({"epoch-every", "N",
                 "auto-seal a tenant once N released records are pending (0 = manual SEAL)",
                 std::string("0")});
  parser.option({"reorder-hours", "H", "reorder horizon for every tenant's event stream",
                 std::string("24")});
  parser.option({"slack-hours", "H", "validation slack for ingested records",
                 std::string("0")});
  parser.option(jobs_option());
  parser.option({"max-line-bytes", "N", "longest accepted protocol line",
                 std::string("1048576")});
  parser.option({"no-alerts", "", "disable the per-tenant alert engines", {}});
  parser.option({"data-dir", "DIR",
                 "persist sealed epochs as columnar segments under DIR/<tenant>/ and "
                 "re-mount any fleets already there on startup",
                 std::string("")});
  parser.option({"slo-query-p99", "S", "latency objective for the query SLO (seconds)",
                 std::string("0.1")});
  parser.option({"slo-tick-ms", "MS", "SLO evaluation / exemplar-window period",
                 std::string("1000")});
  parser.option(trace_option());
  return parser;
}

Result<void> run_serve(const ParsedArgs& args, std::ostream& out) {
  auto port = args.get_int("port");
  if (!port.ok()) return port.error();
  auto host = args.get("host");
  if (!host.ok()) return host.error();
  auto cache_capacity = args.get_int("cache-capacity");
  if (!cache_capacity.ok()) return cache_capacity.error();
  auto epoch_every = args.get_int("epoch-every");
  if (!epoch_every.ok()) return epoch_every.error();
  auto reorder = args.get_double("reorder-hours");
  if (!reorder.ok()) return reorder.error();
  auto slack = args.get_double("slack-hours");
  if (!slack.ok()) return slack.error();
  auto jobs = args.get_int("jobs");
  if (!jobs.ok()) return jobs.error();
  auto max_line = args.get_int("max-line-bytes");
  if (!max_line.ok()) return max_line.error();
  if (port.value() < 0 || port.value() > 65535)
    return Error(ErrorKind::kDomain, "--port must be in [0, 65535]");
  if (cache_capacity.value() < 0 || epoch_every.value() < 0 || jobs.value() < 0)
    return Error(ErrorKind::kDomain,
                 "--cache-capacity, --epoch-every and --jobs must be >= 0");
  if (max_line.value() <= 0) return Error(ErrorKind::kDomain, "--max-line-bytes must be positive");
  auto slo_p99 = args.get_double("slo-query-p99");
  if (!slo_p99.ok()) return slo_p99.error();
  auto slo_tick_ms = args.get_int("slo-tick-ms");
  if (!slo_tick_ms.ok()) return slo_tick_ms.error();
  if (slo_p99.value() <= 0.0 || slo_tick_ms.value() <= 0)
    return Error(ErrorKind::kDomain, "--slo-query-p99 and --slo-tick-ms must be positive");
  std::optional<std::string> trace_path;
  if (args.has("trace")) {
    trace_path = args.get("trace").value();
    if (auto ok = validate_writable_path(*trace_path); !ok.ok())
      return ok.error().with_context("--trace");
    obs::reset_trace();
  }

  // The metrics endpoint is part of the product, so serve always runs
  // with obs enabled (unlike the one-shot commands' --metrics opt-in).
  obs::set_enabled(true);

  serve::ServiceConfig config;
  config.cache_capacity = static_cast<std::size_t>(cache_capacity.value());
  config.study_jobs = static_cast<std::size_t>(jobs.value());
  config.slo.query_p99_seconds = slo_p99.value();
  config.tenant.stream.reorder_horizon_hours = reorder.value();
  config.tenant.slack_hours = slack.value();
  config.tenant.auto_epoch_events = static_cast<std::uint64_t>(epoch_every.value());
  config.tenant.alerts = !args.flag("no-alerts");
  auto data_dir = args.get("data-dir");
  if (!data_dir.ok()) return data_dir.error();
  config.tenant.data_dir = data_dir.value();
  serve::FleetService service(config);

  if (!config.tenant.data_dir.empty()) {
    auto restored = service.restore_tenants();
    if (!restored.ok()) return restored.error();
    if (restored.value() > 0)
      out << "re-mounted " << restored.value() << " tenant"
          << (restored.value() == 1 ? "" : "s") << " from " << config.tenant.data_dir << "\n";
  }

  serve::ServerConfig server_config;
  server_config.host = host.value();
  server_config.port = static_cast<std::uint16_t>(port.value());
  server_config.protocol.max_line_bytes = static_cast<std::size_t>(max_line.value());
  auto server = serve::Server::start(service, server_config);
  if (!server.ok()) return server.error();

  out << "tsufail serve listening on " << host.value() << ":" << server.value()->port() << "\n"
      << "line protocol: OPEN/EVENT/SEAL/QUERY/STATS/ALERTS/TENANTS/KEYS/METRICS/SLO/PING/QUIT\n"
      << "http: /metrics /slo /healthz /tenants /stats/<tenant> /query/<tenant>/<key>\n"
      << std::flush;

  g_serve_stop.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  // The main thread doubles as the SLO cadence: sleep in 100ms slices
  // for signal responsiveness, tick every --slo-tick-ms.
  const auto tick_period = std::chrono::milliseconds(slo_tick_ms.value());
  auto next_tick = std::chrono::steady_clock::now() + tick_period;
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (std::chrono::steady_clock::now() >= next_tick) {
      service.slo_tick();
      next_tick += tick_period;
    }
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  server.value()->stop();
  service.slo_tick();  // final entry so short-lived runs still evaluate
  if (trace_path.has_value()) {
    if (auto written =
            write_text_file(*trace_path, obs::chrome_trace_json(obs::collect_trace()));
        !written.ok())
      return written.error().with_context("--trace");
    out << "\nwrote trace " << *trace_path << "\n";
  }
  const auto cache = service.cache_stats();
  out << "\nshutting down: " << service.tenant_names().size() << " tenants, cache hits "
      << cache.hits << " / misses " << cache.misses << "\n";
  return {};
}

// --- top --------------------------------------------------------------------

std::atomic<bool> g_top_stop{false};

void top_signal_handler(int) { g_top_stop.store(true); }

ArgParser make_top_parser() {
  ArgParser parser("top",
                   "Live dashboard for a running serve daemon: SLO burn state, fleet query "
                   "latency, and per-tenant ingest counters.");
  parser.option({"connect", "HOST:PORT", "serve daemon address", std::string("127.0.0.1:7070")});
  parser.option({"once", "", "render one plain-text frame and exit (for pipes and tests)", {}});
  parser.option({"interval-ms", "MS", "refresh period in live mode", std::string("2000")});
  parser.option({"frames", "N", "stop live mode after N frames (0 = until SIGINT)",
                 std::string("0")});
  return parser;
}

Result<void> run_top(const ParsedArgs& args, std::ostream& out) {
  auto target = args.get("connect");
  if (!target.ok()) return target.error();
  auto interval = args.get_int("interval-ms");
  if (!interval.ok()) return interval.error();
  auto frames = args.get_int("frames");
  if (!frames.ok()) return frames.error();
  if (interval.value() <= 0) return Error(ErrorKind::kDomain, "--interval-ms must be positive");
  if (frames.value() < 0) return Error(ErrorKind::kDomain, "--frames must be >= 0");
  const std::size_t colon = target.value().rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == target.value().size())
    return Error(ErrorKind::kValidation, "--connect expects HOST:PORT");
  const std::string host = target.value().substr(0, colon);
  const std::string port = target.value().substr(colon + 1);

  serve::LineClient client;
  if (auto connected = client.connect(host, port); !connected.ok()) return connected.error();

  if (args.flag("once")) {
    auto snapshot = serve::fetch_top(client, target.value());
    if (!snapshot.ok()) return snapshot.error();
    out << serve::render_top(snapshot.value(), /*ansi=*/false);
    return {};
  }

  g_top_stop.store(false);
  std::signal(SIGINT, top_signal_handler);
  std::signal(SIGTERM, top_signal_handler);
  long long rendered = 0;
  Result<void> outcome = Result<void>{};
  while (!g_top_stop.load()) {
    auto snapshot = serve::fetch_top(client, target.value());
    if (!snapshot.ok()) {
      outcome = snapshot.error();
      break;
    }
    out << serve::render_top(snapshot.value(), /*ansi=*/true) << std::flush;
    if (frames.value() > 0 && ++rendered >= frames.value()) break;
    // Sleep in slices so Ctrl-C lands within ~100ms, not a full interval.
    for (long long slept = 0; slept < interval.value() && !g_top_stop.load(); slept += 100)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<long long>(100, interval.value() - slept)));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (outcome.ok()) out << "\n";
  return outcome;
}

// --- compare --------------------------------------------------------------

ArgParser make_compare_parser() {
  ArgParser parser("compare", "Cross-generation comparison of two logs (older, newer).");
  parser.positional({"older.csv", "older system's log", true});
  parser.positional({"newer.csv", "newer system's log", true});
  parser.option(strict_option());
  return parser;
}

Result<void> run_compare(const ParsedArgs& args, std::ostream& out) {
  auto older = load_log(args, 0);
  if (!older.ok()) return older.error().with_context("older log");
  auto newer = load_log(args, 1);
  if (!newer.ok()) return newer.error().with_context("newer log");
  auto cmp = analysis::compare_generations(data::LogIndex(older.value()),
                                           data::LogIndex(newer.value()));
  if (!cmp.ok()) return cmp.error();

  report::Table table({"Metric", older.value().spec().name, newer.value().spec().name, "Ratio"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight});
  table.add_row({"failures", std::to_string(older.value().size()),
                 std::to_string(newer.value().size()), ""});
  table.add_row({"Rpeak (PFlop/s)", report::fmt(cmp.value().older.rpeak_pflops, 1),
                 report::fmt(cmp.value().newer.rpeak_pflops, 1),
                 report::fmt(cmp.value().compute_ratio, 2) + "x"});
  table.add_row({"MTBF (h)", report::fmt(cmp.value().older.mtbf_hours, 1),
                 report::fmt(cmp.value().newer.mtbf_hours, 1),
                 report::fmt(cmp.value().mtbf_ratio, 2) + "x"});
  table.add_row({"FLOP x MTBF (PFlop-h)",
                 report::fmt(cmp.value().older.pflop_hours_per_failure_free_period, 0),
                 report::fmt(cmp.value().newer.pflop_hours_per_failure_free_period, 0),
                 report::fmt(cmp.value().metric_ratio, 1) + "x"});
  table.add_row({"GPU+CPU components", std::to_string(cmp.value().older.components),
                 std::to_string(cmp.value().newer.components),
                 report::fmt(1.0 / cmp.value().component_ratio, 2) + "x"});
  out << table.render();
  out << "\nreliability outpaced component shrinkage: "
      << (cmp.value().reliability_outpaced_shrinkage ? "yes" : "no") << "\n";
  return {};
}

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"simulate", "generate a calibrated synthetic log", make_simulate_parser, run_simulate},
      {"analyze", "run the full DSN'21 study on a log", make_analyze_parser, run_analyze, true},
      {"sweep", "multi-replicate Monte Carlo study with aggregate CIs", make_sweep_parser,
       run_sweep_command, true},
      {"repairs", "repair-policy comparison: discrete-event shop vs sampled TTR",
       make_repairs_parser, run_repairs, true},
      {"triage", "operator impact report", make_triage_parser, run_triage},
      {"report", "full study as markdown", make_report_parser, run_report, true},
      {"figures", "export figure series as CSV", make_figures_parser, run_figures},
      {"checkpoint", "checkpoint plan from measured MTBF", make_checkpoint_parser,
       run_checkpoint},
      {"spares", "spare-pool sizing", make_spares_parser, run_spares},
      {"predict", "node-failure prediction backtest", make_predict_parser, run_predict},
      {"import", "convert a legacy-v1 log to canonical CSV", make_import_parser, run_import},
      {"pack", "pack a log into a columnar snapshot (.tsnap)", make_pack_parser, run_pack},
      {"unpack", "expand a snapshot back to canonical CSV", make_unpack_parser, run_unpack},
      {"trends", "rolling MTBF/MTTR trends over lifetime", make_trends_parser, run_trends},
      {"watch", "live-replay a log through the streaming monitor", make_watch_parser, run_watch,
       true},
      {"serve", "multi-tenant fleet service (ingest + cached queries)", make_serve_parser,
       run_serve},
      {"top", "live SLO/tenant dashboard for a serve daemon", make_top_parser, run_top},
      {"profile", "span self-time profile of any command", make_profile_parser, run_profile},
      {"racks", "rack-level spatial distribution", make_racks_parser, run_racks},
      {"couplings", "cross-category lead-lag couplings", make_couplings_parser, run_couplings},
      {"compare", "cross-generation comparison", make_compare_parser, run_compare},
  };
  return kCommands;
}

int dispatch(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
  const auto print_overview = [&](std::ostream& stream) {
    stream << "tsufail - failure & repair analysis for multi-GPU supercomputers\n\n"
           << "usage: tsufail <command> [args]\n\ncommands:\n";
    std::string traced;
    for (const auto& command : commands()) {
      stream << "  " << command.name;
      stream << std::string(command.name.size() < 12 ? 12 - command.name.size() : 1, ' ');
      stream << command.summary << "\n";
      if (command.traced) traced += (traced.empty() ? "" : "/") + command.name;
    }
    stream << "\nprofiling: " << traced
           << " accept --trace FILE (Chrome-trace JSON\nfor ui.perfetto.dev) and --metrics FILE "
              "(.json = JSON, otherwise Prometheus text);\n'tsufail profile -- <command> "
              "[args]' shows where any command spends its time.\n";
    stream << "\nrun 'tsufail <command> --help' for per-command options.\n";
  };

  if (argv.empty() || argv[0] == "help" || argv[0] == "--help") {
    print_overview(out);
    return argv.empty() ? 1 : 0;
  }

  if (argv[0] == "--version" || argv[0] == "version") {
    out << util::build_info_text();
    return 0;
  }

  const Command* command = find_command(argv[0]);
  if (command == nullptr) {
    err << "unknown command '" << argv[0] << "'\n\n";
    print_overview(err);
    return 2;
  }
  const ArgParser parser = parser_for(*command);
  const std::vector<std::string> rest(argv.begin() + 1, argv.end());
  for (const auto& token : rest) {
    if (token == "--") break;
    if (token == "--help") {
      out << parser.help();
      return 0;
    }
  }
  auto parsed = parser.parse(rest);
  if (!parsed.ok()) {
    err << "error: " << parsed.error().to_string() << "\n\n" << parser.help();
    return 2;
  }
  auto result = run_command(*command, parsed.value(), out);
  if (!result.ok()) {
    err << "error: " << result.error().to_string() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace tsufail::cli
