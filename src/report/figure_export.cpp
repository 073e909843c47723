#include "report/figure_export.h"

#include <filesystem>

#include "util/csv.h"

namespace tsufail::report {

Result<void> export_figures(std::span<const FigureData> figures, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec)
    return Error(ErrorKind::kIo, "cannot create figure directory '" + directory +
                                     "': " + ec.message());
  for (const auto& figure : figures) {
    const std::string path = directory + "/" + figure.name + ".csv";
    if (auto written = write_csv_file(path, figure.columns, figure.rows); !written.ok())
      return written;
  }
  return {};
}

}  // namespace tsufail::report
