// The paper-figure table at the bench seed, gated against the committed
// figures/: the table's stems and the files there match one to one, every
// file regenerates byte for byte, and every paper comparison is within
// tolerance.  Also the table's single-machine walk.
#include "report/paper_figures.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace tsufail::report {
namespace {

namespace fs = std::filesystem;

const Reproduction& repro() {
  static const Reproduction kRepro;
  return kRepro;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::set<std::string> csv_stems(const fs::path& directory) {
  std::set<std::string> stems;
  for (const auto& file : fs::directory_iterator(directory)) {
    if (file.path().extension() == ".csv") stems.insert(file.path().stem().string());
  }
  return stems;
}

TEST(PaperFigures, StemsMatchTheCommittedFilesOneToOne) {
  std::set<std::string> stems;
  for (const auto& entry : paper_figures()) {
    for (const std::string_view stem : entry.stems) {
      if (!stem.empty()) stems.insert(std::string(stem));
    }
  }
  EXPECT_EQ(stems, csv_stems(TSUFAIL_FIGURES_DIR));
  EXPECT_EQ(stems.size(), 31u);
  EXPECT_EQ(std::distance(fs::directory_iterator(TSUFAIL_FIGURES_DIR), fs::directory_iterator()),
            31);
}

TEST(PaperFigures, BenchSeedRegeneratesEveryCommittedFile) {
  const fs::path dir = fs::path(::testing::TempDir()) / "paper_figures_bench_seed";
  fs::remove_all(dir);
  std::size_t files = 0;
  for (const auto& entry : paper_figures()) {
    const auto figures = extract_figures(entry, repro().machines());
    ASSERT_TRUE(export_figures(figures, dir.string()).ok()) << entry.title;
    for (const auto& figure : figures) {
      ++files;
      const std::string name = figure.name + ".csv";
      EXPECT_EQ(read_file(dir / name), read_file(fs::path(TSUFAIL_FIGURES_DIR) / name)) << name;
    }
  }
  EXPECT_EQ(files, 31u);
  fs::remove_all(dir);
}

TEST(PaperFigures, EveryComparisonIsWithinTolerance) {
  std::size_t sets = 0;
  for (const auto& entry : paper_figures()) {
    for (const auto& set : check_figure(entry, repro()).comparisons) {
      ++sets;
      EXPECT_FALSE(set.rows().empty()) << set.name();
      EXPECT_TRUE(set.all_within_tolerance()) << set.render();
    }
  }
  EXPECT_EQ(sets, 31u);
}

TEST(PaperFigures, OneMachineWalkDrawsItsOwnStemsAndSkipsCrossMachineEntries) {
  const MachineInput& t3 = repro().machines()[1];
  std::set<std::string> drawn;
  for (const auto& entry : paper_figures()) {
    for (const auto& figure : extract_figures(entry, {&t3, 1})) drawn.insert(figure.name);
  }
  EXPECT_TRUE(drawn.contains("fig03_software_loci"));
  EXPECT_TRUE(drawn.contains("fig06_tbf_cdf"));
  EXPECT_FALSE(drawn.contains("fig02a_categories_t2"));
  EXPECT_FALSE(drawn.contains("rq4_component_mtbf"));
  EXPECT_FALSE(drawn.contains("rq4_perf_error_prop"));
  for (const char* stem : {"ext_ablation", "ext_prediction", "ext_checkpoint", "ext_job_impact"})
    EXPECT_FALSE(drawn.contains(stem)) << stem;
  EXPECT_EQ(drawn.size(), 14u);
}

}  // namespace
}  // namespace tsufail::report
