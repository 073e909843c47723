// Tests for the tsufail tool's subcommands, driven through dispatch() on
// in-memory streams (no subprocesses).
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "report/paper_figures.h"

namespace tsufail::cli {
namespace {

struct RunResult {
  int code = 0;
  std::string out;
  std::string err;
};

RunResult run(std::vector<std::string> argv) {
  std::ostringstream out, err;
  const int code = dispatch(argv, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_log_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Dispatch, NoArgsPrintsOverviewAndFails) {
  const auto result = run({});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.out.find("usage: tsufail"), std::string::npos);
}

TEST(Dispatch, HelpCommandSucceeds) {
  const auto result = run({"help"});
  EXPECT_EQ(result.code, 0);
  for (const auto& command : commands()) {
    EXPECT_NE(result.out.find(command.name), std::string::npos) << command.name;
  }
}

TEST(Dispatch, UnknownCommand) {
  const auto result = run({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Dispatch, PerCommandHelp) {
  const auto result = run({"simulate", "--help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("usage: tsufail simulate"), std::string::npos);
  EXPECT_NE(result.out.find("--machine"), std::string::npos);
}

TEST(Dispatch, BadArgsShowHelpOnStderr) {
  const auto result = run({"simulate"});  // missing positional
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("error:"), std::string::npos);
  EXPECT_NE(result.err.find("usage: tsufail simulate"), std::string::npos);
}

TEST(Commands, SimulateThenAnalyze) {
  const std::string path = temp_log_path("cli_sim_t2.csv");
  const auto sim = run({"simulate", path, "--machine", "t2", "--seed", "3"});
  ASSERT_EQ(sim.code, 0) << sim.err;
  EXPECT_NE(sim.out.find("897 failures"), std::string::npos);

  const auto analyze = run({"analyze", path});
  ASSERT_EQ(analyze.code, 0) << analyze.err;
  EXPECT_NE(analyze.out.find("Tsubame-2"), std::string::npos);
  EXPECT_NE(analyze.out.find("GPU"), std::string::npos);
  EXPECT_NE(analyze.out.find("MTBF:"), std::string::npos);
  EXPECT_NE(analyze.out.find("MTTR:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Commands, SimulateHonorsFailureOverrideAndKnobs) {
  const std::string path = temp_log_path("cli_sim_small.csv");
  const auto sim = run({"simulate", path, "--machine", "t3", "--failures", "50",
                        "--no-bursts", "--no-heterogeneity"});
  ASSERT_EQ(sim.code, 0) << sim.err;
  EXPECT_NE(sim.out.find("wrote 50 failures"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Commands, SimulateRejectsBadMachineAndCount) {
  EXPECT_EQ(run({"simulate", "/tmp/x.csv", "--machine", "cray-1"}).code, 1);
  EXPECT_EQ(run({"simulate", "/tmp/x.csv", "--failures", "-4"}).code, 1);
}

TEST(Commands, AnalyzeMissingFileFails) {
  const auto result = run({"analyze", "/definitely/not/here.csv"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Commands, SweepHelpListsTheKnobs) {
  const auto result = run({"sweep", "--help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("usage: tsufail sweep"), std::string::npos);
  for (const char* flag : {"--replicates", "--jobs", "--gpus-per-node", "--nodes"})
    EXPECT_NE(result.out.find(flag), std::string::npos) << flag;
}

TEST(Commands, SweepPrintsAggregateTable) {
  const auto result = run({"sweep", "--replicates", "3", "--machine", "t3"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("3 replicates per variant"), std::string::npos);
  EXPECT_NE(result.out.find("Tsubame-3 (baseline)"), std::string::npos);
  EXPECT_NE(result.out.find("MTBF (h)"), std::string::npos);
  EXPECT_NE(result.out.find("CI low"), std::string::npos);
}

TEST(Commands, SweepOutputIndependentOfJobs) {
  // The determinism contract, end to end: the printed report must be
  // byte-identical whether the replicates ran serially or on 4 workers.
  const auto serial = run({"sweep", "--replicates", "4", "--jobs", "1", "--seed", "9"});
  const auto threaded = run({"sweep", "--replicates", "4", "--jobs", "4", "--seed", "9"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(threaded.code, 0) << threaded.err;
  EXPECT_EQ(serial.out, threaded.out);
}

TEST(Commands, SweepWhatIfVariantAndAllMetrics) {
  const auto result = run({"sweep", "--replicates", "2", "--gpus-per-node", "6",
                           "--correlated", "--all-metrics"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("what-if"), std::string::npos);
  EXPECT_NE(result.out.find("6 GPUs/node"), std::string::npos);
  EXPECT_NE(result.out.find("mtbf_gpu_hours"), std::string::npos);
}

TEST(Commands, SweepRejectsBadArguments) {
  EXPECT_EQ(run({"sweep", "--replicates", "0"}).code, 1);
  EXPECT_EQ(run({"sweep", "--level", "1.5"}).code, 1);
  EXPECT_EQ(run({"sweep", "--machine", "cray"}).code, 1);
  EXPECT_EQ(run({"sweep", "--gpus-per-node", "-3"}).code, 1);
}

TEST(Commands, TriageReportsImpactAndPolicy) {
  const std::string path = temp_log_path("cli_triage.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t3", "--seed", "4"}).code, 0);
  const auto triage = run({"triage", path, "--top", "5"});
  ASSERT_EQ(triage.code, 0) << triage.err;
  EXPECT_NE(triage.out.find("Impact ratio"), std::string::npos);
  EXPECT_NE(triage.out.find("repeat-offender test"), std::string::npos);
  EXPECT_NE(triage.out.find("2nd failure"), std::string::npos);
  std::remove(path.c_str());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string first_line(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::set<std::string> csv_stems(const std::filesystem::path& directory) {
  std::set<std::string> stems;
  for (const auto& file : std::filesystem::directory_iterator(directory))
    stems.insert(file.path().stem().string());
  return stems;
}

TEST(Commands, FiguresWritesCsvs) {
  namespace fs = std::filesystem;
  const std::string csv = temp_log_path("cli_figures.csv");
  const std::string tsnap = temp_log_path("cli_figures.tsnap");
  const fs::path from_csv = temp_log_path("cli_figdir_csv");
  const fs::path from_tsnap = temp_log_path("cli_figdir_tsnap");
  fs::remove_all(from_csv);
  fs::remove_all(from_tsnap);
  const std::string seed = std::to_string(report::kBenchSeed);
  ASSERT_EQ(run({"simulate", csv, "--machine", "t2", "--seed", seed}).code, 0);
  ASSERT_EQ(run({"pack", csv, tsnap}).code, 0);
  const auto figures = run({"figures", csv, "--outdir", from_csv.string()});
  ASSERT_EQ(figures.code, 0) << figures.err;
  ASSERT_EQ(run({"figures", tsnap, "--outdir", from_tsnap.string()}).code, 0);

  // Exactly the table's Tsubame-2 stems, each under its committed header.
  std::set<std::string> t2_stems;
  for (const auto& entry : report::paper_figures()) {
    const auto stem = entry.stems[static_cast<std::size_t>(data::Machine::kTsubame2)];
    if (!stem.empty() && !entry.pair_rows) t2_stems.insert(std::string(stem));
  }
  EXPECT_EQ(csv_stems(from_csv), t2_stems);
  EXPECT_NE(figures.out.find("wrote " + std::to_string(t2_stems.size()) + " figure CSVs"),
            std::string::npos)
      << figures.out;
  const fs::path committed = TSUFAIL_FIGURES_DIR;
  for (const auto& stem : t2_stems) {
    EXPECT_EQ(first_line(from_csv / (stem + ".csv")), first_line(committed / (stem + ".csv")))
        << stem;
  }

  // Counts do not pass through the CSV's 4-decimal TTRs, so these match
  // the bench's files byte for byte (TTR-derived ones need not).
  for (const char* stem : {"fig02a_categories_t2", "fig04a_node_counts_t2", "fig05a_gpu_slots_t2",
                           "tab03_multi_gpu_t2"}) {
    const std::string name = std::string(stem) + ".csv";
    EXPECT_EQ(read_file(from_csv / name), read_file(committed / name)) << name;
  }

  // The same log as a snapshot gives the same directory.
  EXPECT_EQ(csv_stems(from_tsnap), t2_stems);
  for (const auto& stem : t2_stems) {
    const std::string name = stem + ".csv";
    EXPECT_EQ(read_file(from_tsnap / name), read_file(from_csv / name)) << name;
  }
  fs::remove_all(from_csv);
  fs::remove_all(from_tsnap);
  std::remove(csv.c_str());
  std::remove(tsnap.c_str());
}

TEST(Commands, FiguresWritesOnlyTheEntriesWhoseAnalysesRan) {
  namespace fs = std::filesystem;
  const std::string path = temp_log_path("cli_figures_two.csv");
  const fs::path outdir = temp_log_path("cli_figdir_two");
  fs::remove_all(outdir);
  {
    std::ofstream log(path);
    log << "machine,timestamp,node,category,ttr_hours,gpu_slots,root_locus\n"
        << "Tsubame-2,2012-01-08 10:48:11,216,FAN,14.4708,,\n"
        << "Tsubame-2,2012-01-09 21:00:22,552,FAN,61.0331,,\n";
  }
  const auto figures = run({"figures", path, "--outdir", outdir.string()});
  ASSERT_EQ(figures.code, 0) << figures.err;
  // Absent: GPU slots, Table III and Fig 8 (no GPU failure), Fig 7 (TBF
  // per category needs 3 failures of one category), node survival (no
  // node fails twice), Fig 3 (Tsubame-3 only) and RQ4 (needs both
  // machines).
  const std::set<std::string> ran = {
      "ext_racks_t2",          "fig02a_categories_t2",  "fig04a_node_counts_t2",
      "fig06_tbf_cdf",         "fig09_ttr_cdf",         "fig10a_ttr_by_type_t2",
      "fig11a_monthly_ttr_t2", "fig12a_monthly_counts_t2"};
  EXPECT_EQ(csv_stems(outdir), ran);
  fs::remove_all(outdir);
  std::remove(path.c_str());
}

TEST(Commands, FiguresFailsWhenTheOutdirCannotBeCreated) {
  const std::string path = temp_log_path("cli_figures_blocked.csv");
  const std::string blocker = temp_log_path("cli_figures_blocker");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "4"}).code, 0);
  std::ofstream(blocker) << "a regular file, not a directory\n";
  const auto figures = run({"figures", path, "--outdir", blocker + "/figures"});
  EXPECT_EQ(figures.code, 1);
  EXPECT_EQ(figures.err.rfind("error: io:", 0), 0u) << figures.err;
  EXPECT_NE(figures.err.find(blocker + "/figures"), std::string::npos) << figures.err;
  std::remove(blocker.c_str());
  std::remove(path.c_str());
}

TEST(Commands, CheckpointPlan) {
  const std::string path = temp_log_path("cli_ckpt.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "4"}).code, 0);
  const auto plan = run({"checkpoint", path, "--cost-hours", "0.5"});
  ASSERT_EQ(plan.code, 0) << plan.err;
  EXPECT_NE(plan.out.find("Daly interval"), std::string::npos);
  EXPECT_NE(plan.out.find("efficiency"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Commands, SparesSizing) {
  const std::string path = temp_log_path("cli_spares.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "4"}).code, 0);
  const auto spares = run({"spares", path, "--category", "SSD", "--lead-days", "7"});
  ASSERT_EQ(spares.code, 0) << spares.err;
  EXPECT_NE(spares.out.find("SSD"), std::string::npos);
  EXPECT_NE(spares.out.find("stockout probability"), std::string::npos);
  // Unknown category errors out cleanly.
  EXPECT_EQ(run({"spares", path, "--category", "FluxCapacitor"}).code, 1);
  std::remove(path.c_str());
}

TEST(Commands, PredictBacktest) {
  const std::string path = temp_log_path("cli_predict.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t3", "--seed", "4"}).code, 0);
  const auto predict = run({"predict", path, "--top-k", "10"});
  ASSERT_EQ(predict.code, 0) << predict.err;
  EXPECT_NE(predict.out.find("uniform"), std::string::npos);
  EXPECT_NE(predict.out.find("count"), std::string::npos);
  EXPECT_NE(predict.out.find("Hit@10"), std::string::npos);
  EXPECT_EQ(run({"predict", path, "--top-k", "0"}).code, 1);
  std::remove(path.c_str());
}


TEST(Commands, TrendsReport) {
  const std::string path = temp_log_path("cli_trends.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "4"}).code, 0);
  const auto trends = run({"trends", path, "--window-days", "90", "--step-days", "45"});
  ASSERT_EQ(trends.code, 0) << trends.err;
  EXPECT_NE(trends.out.find("failure-rate trend"), std::string::npos);
  EXPECT_NE(trends.out.find("early/late quarter"), std::string::npos);
  // Degenerate window errors out cleanly.
  EXPECT_EQ(run({"trends", path, "--window-days", "100000"}).code, 1);
  std::remove(path.c_str());
}

TEST(Commands, WatchReplaysLogAndRaisesBurstAlert) {
  // Acceptance scenario: a seeded Tsubame-3 log (whose generator clusters
  // multi-GPU failures in time) replayed through the streaming monitor
  // must deterministically raise the multi-GPU burst alert.
  const std::string path = temp_log_path("cli_watch_t3.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t3", "--seed", "1"}).code, 0);
  const auto watch = run({"watch", path, "--summary-every", "100"});
  ASSERT_EQ(watch.code, 0) << watch.err;
  EXPECT_NE(watch.out.find("watching Tsubame-3"), std::string::npos);
  EXPECT_NE(watch.out.find("RAISED [critical] multi-gpu-burst"), std::string::npos);
  EXPECT_NE(watch.out.find("-- final --"), std::string::npos);
  EXPECT_NE(watch.out.find("offered=338"), std::string::npos);
  EXPECT_NE(watch.out.find("failure-rate trend"), std::string::npos);

  // The periodic health summary appears (>= 3 summaries for 338 events).
  EXPECT_NE(watch.out.find("events=100"), std::string::npos);
  EXPECT_NE(watch.out.find("events=300"), std::string::npos);

  // Bad knobs error out cleanly.
  EXPECT_EQ(run({"watch", path, "--burst-size", "0"}).code, 1);
  EXPECT_EQ(run({"watch", path, "--expected-failures", "-3"}).code, 1);
  EXPECT_EQ(run({"watch", path, "--window-days", "100000"}).code, 1);
  std::remove(path.c_str());
}

TEST(Commands, RacksReport) {
  const std::string path = temp_log_path("cli_racks.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t3", "--seed", "4"}).code, 0);
  const auto racks = run({"racks", path, "--top", "5"});
  ASSERT_EQ(racks.code, 0) << racks.err;
  EXPECT_NE(racks.out.find("Gini"), std::string::npos);
  EXPECT_NE(racks.out.find("uniformity chi-square"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Commands, ImportLegacy) {
  const std::string legacy_path = temp_log_path("cli_legacy.log");
  const std::string out_path = temp_log_path("cli_legacy_out.csv");
  {
    std::ofstream legacy(legacy_path);
    legacy << "#legacy-v1 Tsubame-3\n"
              "09/06/2018;13:45;r02n11;GPU;1.25;G0+G3\n"
              "totally broken line\n"
              "10/06/2018;08:00;r00n00;Software;0.50;-;driver woes\n";
  }
  const auto imported = run({"import", legacy_path, out_path});
  ASSERT_EQ(imported.code, 0) << imported.err;
  EXPECT_NE(imported.out.find("imported 2 failures"), std::string::npos);
  EXPECT_NE(imported.out.find("1 lines skipped"), std::string::npos);
  const auto analyze = run({"analyze", out_path});
  EXPECT_EQ(analyze.code, 0) << analyze.err;
  // Strict import fails on the broken line.
  EXPECT_EQ(run({"import", legacy_path, out_path, "--strict"}).code, 1);
  std::remove(legacy_path.c_str());
  std::remove(out_path.c_str());
}


TEST(Commands, CouplingsReport) {
  const std::string path = temp_log_path("cli_couplings.csv");
  ASSERT_EQ(run({"simulate", path, "--machine", "t3", "--seed", "4"}).code, 0);
  const auto couplings = run({"couplings", path, "--top", "5"});
  ASSERT_EQ(couplings.code, 0) << couplings.err;
  EXPECT_NE(couplings.out.find("Leader -> Follower"), std::string::npos);
  EXPECT_NE(couplings.out.find("Lift"), std::string::npos);
  EXPECT_EQ(run({"couplings", path, "--min-events", "0"}).code, 1);
  std::remove(path.c_str());
}

TEST(Commands, ReportMarkdown) {
  const std::string path = temp_log_path("cli_report.csv");
  const std::string out_path = temp_log_path("cli_report.md");
  ASSERT_EQ(run({"simulate", path, "--machine", "t3", "--seed", "4"}).code, 0);
  const auto to_stdout = run({"report", path, "--no-extensions"});
  ASSERT_EQ(to_stdout.code, 0) << to_stdout.err;
  EXPECT_NE(to_stdout.out.find("# Tsubame-3 reliability report"), std::string::npos);
  EXPECT_EQ(to_stdout.out.find("## Node survival"), std::string::npos);
  const auto to_file = run({"report", path, "--out", out_path, "--title", "Custom title"});
  ASSERT_EQ(to_file.code, 0) << to_file.err;
  std::ifstream md(out_path);
  std::string first_line;
  std::getline(md, first_line);
  EXPECT_EQ(first_line, "# Custom title");
  std::remove(path.c_str());
  std::remove(out_path.c_str());
}

/// Counter `name` from a `--metrics FILE.json` dump (0 when absent).
std::uint64_t metrics_json_counter(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.str().find(key);
  return at == std::string::npos ? 0 : std::stoull(json.str().substr(at + key.size()));
}

TEST(Commands, OneIndexBuildPerLoadedLog) {
  // The report's study and its extension sections share one index.
  const std::string path = temp_log_path("cli_one_index.csv");
  const std::string metrics = temp_log_path("cli_one_index.json");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "5"}).code, 0);
  for (const char* command : {"report", "analyze"}) {
    SCOPED_TRACE(command);
    const auto result = run({command, path, "--metrics", metrics});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_EQ(metrics_json_counter(metrics, "index.builds"), 1u);
  }
  std::remove(path.c_str());
  std::remove(metrics.c_str());
}

// --- the front door: --trace/--metrics and profile ------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Commands, AnalyzeOfASnapshotAdoptsItsColumns) {
  // The index reads the snapshot's mapped columns: no records are built
  // and no index is built from them.
  const std::string csv = temp_log_path("cli_adopt.csv");
  const std::string snapshot = temp_log_path("cli_adopt.tsnap");
  const std::string trace = temp_log_path("cli_adopt_trace.json");
  const std::string metrics = temp_log_path("cli_adopt.json");
  ASSERT_EQ(run({"simulate", csv, "--machine", "t2", "--seed", "5"}).code, 0);
  ASSERT_EQ(run({"pack", csv, snapshot}).code, 0);
  const auto result = run({"analyze", snapshot, "--trace", trace, "--metrics", metrics});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(metrics_json_counter(metrics, "index.adopts"), 1u);
  EXPECT_EQ(metrics_json_counter(metrics, "index.builds"), 0u);
  const auto spans = obs::check_chrome_trace(read_file(trace));
  ASSERT_TRUE(spans.ok()) << spans.error().to_string();
  std::map<std::string, std::size_t> counts(spans.value().spans_by_name.begin(),
                                            spans.value().spans_by_name.end());
  EXPECT_EQ(counts["index.adopt"], 1u);
  EXPECT_EQ(counts["columnar.to_log"], 0u);
  for (const auto& path : {csv, snapshot, trace, metrics}) std::remove(path.c_str());
}

TEST(Commands, IndexedSnapshotFromOlderBuildsStillLoads) {
  // Packed by a build whose `pack` also wrote the index sections (ids
  // 10-13, header flag bit 0); users' files and serve segments look so.
  const std::string fixture =
      std::string(TSUFAIL_FIXTURES_DIR) + "/tsubame3_seed1_indexed.tsnap";
  const std::string csv = temp_log_path("cli_legacy.csv");
  const std::string back = temp_log_path("cli_legacy_back.csv");
  ASSERT_EQ(run({"simulate", csv, "--machine", "t3", "--seed", "1"}).code, 0);
  const auto via_csv = run({"analyze", csv});
  const auto via_snapshot = run({"analyze", fixture});
  ASSERT_EQ(via_csv.code, 0) << via_csv.err;
  ASSERT_EQ(via_snapshot.code, 0) << via_snapshot.err;
  EXPECT_EQ(via_snapshot.out, via_csv.out);
  ASSERT_EQ(run({"unpack", fixture, back}).code, 0);
  EXPECT_EQ(read_file(back), read_file(csv));
  std::remove(csv.c_str());
  std::remove(back.c_str());
}

TEST(FrontDoor, TracedCommandLeavesObsOff) {
  const std::string path = temp_log_path("cli_obs_off.csv");
  const std::string metrics = temp_log_path("cli_obs_off.json");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "5"}).code, 0);
  const auto result = run({"analyze", path, "--metrics", metrics});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_FALSE(obs::enabled());
  std::remove(path.c_str());
  std::remove(metrics.c_str());
}

TEST(FrontDoor, FailedCommandLeavesNoOutputFiles) {
  const std::string trace = temp_log_path("cli_failed_trace.json");
  const std::string metrics = temp_log_path("cli_failed_metrics.prom");
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  const auto result =
      run({"analyze", "/no/such/log.csv", "--trace", trace, "--metrics", metrics});
  EXPECT_EQ(result.code, 1);
  EXPECT_FALSE(std::filesystem::exists(trace));
  EXPECT_FALSE(std::filesystem::exists(metrics));
  // An existing file at the path keeps its bytes.
  std::ofstream(trace, std::ios::binary) << "keep";
  EXPECT_EQ(run({"analyze", "/no/such/log.csv", "--trace", trace}).code, 1);
  EXPECT_EQ(read_file(trace), "keep");
  std::remove(trace.c_str());
}

TEST(FrontDoor, EveryTracedCommandWritesValidFilesWithItsCliSpan) {
  const std::string path = temp_log_path("cli_traced.csv");
  const std::string trace = temp_log_path("cli_traced_trace.json");
  const std::string metrics = temp_log_path("cli_traced_metrics.prom");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "5"}).code, 0);
  const std::vector<std::vector<std::string>> lines = {
      {"analyze", path},
      {"report", path, "--no-extensions"},
      {"sweep", "--machine", "t2", "--quick"},
      {"repairs", "--machine", "t2", "--quick", "--mix-jobs", "50"},
      {"watch", path, "--summary-every", "0"}};
  for (auto line : lines) {
    SCOPED_TRACE(line[0]);
    line.insert(line.end(), {"--trace", trace, "--metrics", metrics});
    const auto result = run(line);
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("wrote trace ("), std::string::npos);
    EXPECT_NE(result.out.find("wrote metrics ("), std::string::npos);
    const auto spans = obs::check_chrome_trace(read_file(trace));
    ASSERT_TRUE(spans.ok()) << spans.error().to_string();
    std::map<std::string, std::size_t> counts(spans.value().spans_by_name.begin(),
                                              spans.value().spans_by_name.end());
    EXPECT_EQ(counts["cli." + line[0]], 1u);
    if (line[0] == "analyze") {
      // Load, the records' release and the render are spans of their own.
      for (const char* stage : {"file.read", "csv.read", "log.free", "report.render"})
        EXPECT_EQ(counts[stage], 1u) << stage;
    }
    const auto exposition = obs::check_prometheus_text(read_file(metrics));
    EXPECT_TRUE(exposition.ok()) << exposition.error().to_string();
  }
  std::remove(path.c_str());
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

TEST(FrontDoor, UntracedCommandRejectsTrace) {
  const auto result = run({"pack", "in.csv", "out.tsnap", "--trace", "x"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown option --trace"), std::string::npos);
}

TEST(Dispatch, OverviewListsTheTracedCommands) {
  const auto result = run({"--help"});
  const std::size_t at = result.out.find("profiling: ");
  ASSERT_NE(at, std::string::npos);
  const std::string traced = result.out.substr(at, result.out.find(" accept", at) - at);
  for (const char* name : {"analyze", "report", "sweep", "repairs", "watch"})
    EXPECT_NE(traced.find(name), std::string::npos) << name;
}

TEST(Dispatch, HelpAfterDoubleDashIsAnArgument) {
  const auto result = run({"analyze", "--", "--help"});
  EXPECT_EQ(result.code, 1);  // "--help" is the log path here
  EXPECT_EQ(result.out.find("usage: tsufail analyze"), std::string::npos);
  EXPECT_NE(result.err.find("--help"), std::string::npos);
}

/// The count column of `span`'s row in profile's table (0 when absent).
unsigned long long profile_count(const std::string& text, const std::string& span) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name;
    unsigned long long count = 0;
    if (fields >> name >> count && name == span) return count;
  }
  return 0;
}

TEST(Profile, WrapsAnyCommand) {
  const std::string path = temp_log_path("cli_profile.csv");
  const std::string snapshot = temp_log_path("cli_profile.tsnap");
  const std::string trace = temp_log_path("cli_profile_trace.json");
  ASSERT_EQ(run({"simulate", path, "--machine", "t2", "--seed", "5"}).code, 0);

  const auto once = run({"profile", "--", "analyze", path, "--jobs", "2"});
  ASSERT_EQ(once.code, 0) << once.err;
  EXPECT_EQ(once.out.find("MTBF:"), std::string::npos);  // analyze's own text is discarded
  for (const char* span : {"cli.analyze", "csv.read", "study.run"})
    EXPECT_EQ(profile_count(once.out, span), 1u) << span;
  const std::string cover = "child spans cover ";
  const std::size_t at = once.out.find(cover);
  ASSERT_NE(at, std::string::npos);
  const double percent = std::stod(once.out.substr(at + cover.size()));
  EXPECT_GT(percent, 0.0);
  EXPECT_LE(percent, 100.0);
  EXPECT_NE(once.out.find("% of cli.analyze"), std::string::npos);

  // The table and a --trace file given to the command both cover every run.
  const auto thrice = run({"profile", "--runs", "3", "--", "analyze", path, "--trace", trace});
  ASSERT_EQ(thrice.code, 0) << thrice.err;
  EXPECT_EQ(profile_count(thrice.out, "cli.analyze"), 3u);
  const auto spans = obs::check_chrome_trace(read_file(trace));
  ASSERT_TRUE(spans.ok()) << spans.error().to_string();
  std::size_t cli_spans = 0;
  for (const auto& [name, count] : spans.value().spans_by_name) {
    if (name == "cli.analyze") cli_spans = count;
  }
  EXPECT_EQ(cli_spans, 3u);
  EXPECT_FALSE(obs::enabled());

  // A command without --trace of its own.
  const auto pack = run({"profile", "--", "pack", path, snapshot});
  ASSERT_EQ(pack.code, 0) << pack.err;
  EXPECT_EQ(profile_count(pack.out, "cli.pack"), 1u);
  EXPECT_EQ(profile_count(pack.out, "columnar.pack"), 1u);
  std::remove(path.c_str());
  std::remove(snapshot.c_str());
  std::remove(trace.c_str());
}

TEST(Profile, FailsWithTheCommandsError) {
  const auto direct = run({"analyze", "/no/such/log.csv"});
  const auto profiled = run({"profile", "--", "analyze", "/no/such/log.csv"});
  EXPECT_EQ(profiled.code, 1);
  EXPECT_EQ(profiled.err, direct.err);
  EXPECT_EQ(run({"profile"}).code, 2);
  EXPECT_EQ(run({"profile", "--runs", "2", "--"}).code, 2);
  EXPECT_EQ(run({"profile", "--", "frobnicate"}).code, 1);
}

TEST(Commands, CompareGenerations) {
  const std::string t2_path = temp_log_path("cli_cmp_t2.csv");
  const std::string t3_path = temp_log_path("cli_cmp_t3.csv");
  ASSERT_EQ(run({"simulate", t2_path, "--machine", "t2", "--seed", "4"}).code, 0);
  ASSERT_EQ(run({"simulate", t3_path, "--machine", "t3", "--seed", "4"}).code, 0);
  const auto cmp = run({"compare", t2_path, t3_path});
  ASSERT_EQ(cmp.code, 0) << cmp.err;
  EXPECT_NE(cmp.out.find("MTBF"), std::string::npos);
  EXPECT_NE(cmp.out.find("reliability outpaced component shrinkage: yes"), std::string::npos);
  std::remove(t2_path.c_str());
  std::remove(t3_path.c_str());
}

TEST(Commands, RepairsHelpListsTheKnobs) {
  const auto result = run({"repairs", "--help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("usage: tsufail repairs"), std::string::npos);
  for (const char* flag : {"--config", "--policy", "--replicates", "--mix-jobs", "--quick"})
    EXPECT_NE(result.out.find(flag), std::string::npos) << flag;
}

TEST(Commands, RepairsSweepComparesAllPolicies) {
  const auto result = run({"repairs", "--machine", "t2", "--quick", "--mix-jobs", "50"});
  ASSERT_EQ(result.code, 0) << result.err;
  for (const char* needle : {"## Policy: fifo", "## Policy: criticality-first",
                             "## Policy: batched-windows", "## Ranking",
                             "capacity availability", "goodput (ckpt)"})
    EXPECT_NE(result.out.find(needle), std::string::npos) << needle;
}

TEST(Commands, RepairsSweepOutputIndependentOfJobs) {
  // End-to-end determinism for the staged sweep: same bytes whether the
  // policy replicates ran serially or on 4 worker threads.
  const auto serial = run({"repairs", "--quick", "--jobs", "1", "--seed", "9",
                           "--mix-jobs", "50"});
  const auto threaded = run({"repairs", "--quick", "--jobs", "4", "--seed", "9",
                             "--mix-jobs", "50"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(threaded.code, 0) << threaded.err;
  EXPECT_EQ(serial.out, threaded.out);
}

TEST(Commands, RepairsSinglePolicySweep) {
  const auto result = run({"repairs", "--quick", "--policy", "critical", "--mix-jobs", "50"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("## Policy: criticality-first"), std::string::npos);
  EXPECT_EQ(result.out.find("## Policy: fifo"), std::string::npos);
}

TEST(Commands, RepairsDirectModeSchedulesALog) {
  const std::string path = temp_log_path("cli_repairs_t2.csv");
  const auto sim = run({"simulate", path, "--machine", "t2", "--seed", "5",
                        "--failures", "80"});
  ASSERT_EQ(sim.code, 0) << sim.err;
  const auto result = run({"repairs", path, "--config", "crews=8,spares=GPU:40:168",
                           "--mix-jobs", "50"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("repair shop on 80 failures"), std::string::npos);
  for (const char* needle :
       {"Policy", "Avail", "Eff MTTR", "Stockouts", "Goodput (ckpt)", "fifo",
        "criticality-first", "batched-windows"})
    EXPECT_NE(result.out.find(needle), std::string::npos) << needle;
  std::remove(path.c_str());
}

TEST(Commands, RepairsRejectsBadArguments) {
  EXPECT_EQ(run({"repairs", "--config", "crews=0"}).code, 1);
  EXPECT_EQ(run({"repairs", "--config", "crews=2,boost=7"}).code, 1);
  EXPECT_EQ(run({"repairs", "--policy", "round-robin"}).code, 1);
  EXPECT_EQ(run({"repairs", "--quick", "--mix-jobs", "0"}).code, 1);
  EXPECT_EQ(run({"repairs", "--machine", "cray"}).code, 1);
  EXPECT_EQ(run({"repairs", "/no/such/log.csv"}).code, 1);
}

}  // namespace
}  // namespace tsufail::cli
