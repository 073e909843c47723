// Tests for the reporting layer: tables, charts, comparisons, CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "report/chart.h"
#include "report/compare.h"
#include "report/figure_export.h"
#include "report/table.h"

namespace tsufail::report {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table table({"Name", "Count"});
  table.set_alignment({Align::kLeft, Align::kRight});
  table.add_row({"GPU", "398"});
  table.add_row({"FAN", "90"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Name  Count"), std::string::npos);
  EXPECT_NE(out.find("GPU     398"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, PadsShortRowsTruncatesLong) {
  Table table({"A", "B"});
  table.add_row({"1"});
  table.add_row({"1", "2", "3"});
  EXPECT_EQ(table.rows(), 2u);
  const std::string out = table.render();
  EXPECT_EQ(out.find("3"), std::string::npos);
}

TEST(Table, WidensToContent) {
  Table table({"X"});
  table.add_row({"a-very-long-cell"});
  const std::string out = table.render();
  EXPECT_NE(out.find("a-very-long-cell"), std::string::npos);
  EXPECT_NE(out.find("----------------"), std::string::npos);
}

TEST(Fmt, Formatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt_percent(44.37), "44.37%");
  EXPECT_EQ(fmt_percent(5.0, 1), "5.0%");
}

TEST(CdfChart, RendersSeriesAndLegend) {
  Series s1{"Tsubame-2", {{0.0, 0.0}, {10.0, 0.5}, {20.0, 1.0}}};
  Series s2{"Tsubame-3", {{0.0, 0.0}, {40.0, 0.5}, {90.0, 1.0}}};
  const std::string out = render_cdf_chart({s1, s2}, 60, 12, "hours", "CDF");
  EXPECT_NE(out.find("Tsubame-2"), std::string::npos);
  EXPECT_NE(out.find("Tsubame-3"), std::string::npos);
  EXPECT_NE(out.find("(hours)"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
}

TEST(CdfChart, EmptyInput) {
  EXPECT_NE(render_cdf_chart({}).find("no series"), std::string::npos);
  EXPECT_NE(render_cdf_chart({Series{"empty", {}}}).find("empty series"), std::string::npos);
}

TEST(CdfChart, SinglePointDoesNotCrash) {
  const std::string out = render_cdf_chart({Series{"one", {{5.0, 1.0}}}});
  EXPECT_FALSE(out.empty());
}

TEST(BarChart, ScalesToMax) {
  const std::string out = render_bar_chart({{"GPU", 44.37}, {"FAN", 10.0}}, 40);
  EXPECT_NE(out.find("GPU"), std::string::npos);
  // The max bar is exactly `width` hashes.
  EXPECT_NE(out.find(std::string(40, '#')), std::string::npos);
}

TEST(BarChart, HandlesZeroValues) {
  const std::string out = render_bar_chart({{"A", 0.0}, {"B", 0.0}});
  EXPECT_NE(out.find("A"), std::string::npos);
}

TEST(Comparison, Verdicts) {
  Comparison c{"MTBF", 15.0, 15.3, 0.15, "h"};
  EXPECT_NEAR(c.abs_delta(), 0.3, 1e-12);
  EXPECT_NEAR(c.rel_delta(), 0.02, 1e-12);
  EXPECT_TRUE(c.within_tolerance());
  Comparison off{"MTBF", 15.0, 30.0, 0.15, "h"};
  EXPECT_FALSE(off.within_tolerance());
}

TEST(Comparison, ZeroPaperValueUsesAbsoluteCriterion) {
  Comparison c{"4-GPU share", 0.0, 0.0, 0.5, "%"};
  EXPECT_TRUE(c.within_tolerance());
  Comparison off{"4-GPU share", 0.0, 3.0, 0.5, "%"};
  EXPECT_FALSE(off.within_tolerance());
}

TEST(ComparisonSet, RenderAndCount) {
  ComparisonSet set("Figure 6");
  set.add("MTBF T2", 15.0, 15.3, 0.15, "h");
  set.add("MTBF T3", 72.0, 300.0, 0.15, "h");
  EXPECT_EQ(set.matched(), 1u);
  EXPECT_FALSE(set.all_within_tolerance());
  const std::string out = set.render();
  EXPECT_NE(out.find("Figure 6"), std::string::npos);
  EXPECT_NE(out.find("MATCH"), std::string::npos);
  EXPECT_NE(out.find("OFF"), std::string::npos);
  EXPECT_NE(out.find("matched 1/2"), std::string::npos);
}

TEST(FigureExport, WritesCsv) {
  const std::string dir = ::testing::TempDir() + "/tsufail_figures";
  FigureData figure;
  figure.name = "test_fig";
  figure.columns = {"x", "y"};
  figure.rows = {{"1", "0.5"}, {"2", "1.0"}};
  ASSERT_TRUE(export_figures({&figure, 1}, dir).ok());
  std::ifstream in(dir + "/test_fig.csv");
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "x,y");
  std::filesystem::remove_all(dir);
}

TEST(FigureExport, ReportsAnUnwritableDirectoryWithItsPath) {
  const std::string blocker = ::testing::TempDir() + "/tsufail_figures_blocker";
  std::ofstream(blocker) << "a regular file, not a directory\n";
  const FigureData figure{"first", {"x"}, {{"1"}}};
  const std::string outdir = blocker + "/figures";
  const auto written = export_figures({&figure, 1}, outdir);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().kind(), ErrorKind::kIo);
  EXPECT_NE(written.error().message().find(outdir), std::string::npos)
      << written.error().to_string();
  std::filesystem::remove(blocker);
}

TEST(FigureExport, StopsAtTheFirstFailedFile) {
  const std::string dir = ::testing::TempDir() + "/tsufail_figures_first_failure";
  std::filesystem::remove_all(dir);
  // The first stem names a subdirectory that does not exist, so its file
  // cannot be opened; the second would write fine.
  const std::vector<FigureData> figures = {{"missing/first", {"x"}, {{"1"}}},
                                           {"second", {"x"}, {{"2"}}}};
  const auto written = export_figures(figures, dir);
  ASSERT_FALSE(written.ok());
  EXPECT_NE(written.error().message().find(dir + "/missing/first.csv"), std::string::npos)
      << written.error().to_string();
  EXPECT_FALSE(std::filesystem::exists(dir + "/second.csv"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tsufail::report
