#include "data/category.h"

#include <array>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tsufail::data {
namespace {

struct CategoryInfo {
  Category category;
  std::string_view name;         // canonical (Table II) spelling
  FailureClass cls;
  bool on_tsubame2;
  bool on_tsubame3;
  bool gpu_related;
};

constexpr std::array<CategoryInfo, 29> kCategoryTable = {{
    // category, name, class, T2, T3, gpu
    {Category::kBoot, "Boot", FailureClass::kSoftware, true, false, false},
    {Category::kCpu, "CPU", FailureClass::kHardware, true, true, false},
    {Category::kDisk, "Disk", FailureClass::kHardware, true, true, false},
    {Category::kDown, "Down", FailureClass::kUnknown, true, false, false},
    {Category::kFan, "FAN", FailureClass::kHardware, true, false, false},
    {Category::kGpu, "GPU", FailureClass::kHardware, true, true, true},
    {Category::kInfiniband, "IB", FailureClass::kHardware, true, false, false},
    {Category::kMemory, "Memory", FailureClass::kHardware, true, true, false},
    {Category::kNetwork, "Network", FailureClass::kHardware, true, false, false},
    {Category::kOtherHw, "OtherHW", FailureClass::kHardware, true, false, false},
    {Category::kOtherSw, "OtherSW", FailureClass::kSoftware, true, false, false},
    {Category::kPbs, "PBS", FailureClass::kSoftware, true, false, false},
    {Category::kPsu, "PSU", FailureClass::kHardware, true, false, false},
    {Category::kRack, "Rack", FailureClass::kHardware, true, false, false},
    {Category::kSsd, "SSD", FailureClass::kHardware, true, false, false},
    {Category::kSystemBoard, "System Board", FailureClass::kHardware, true, false, false},
    {Category::kVm, "VM", FailureClass::kSoftware, true, false, false},
    {Category::kCrc, "CRC", FailureClass::kHardware, false, true, false},
    {Category::kGpuDriver, "GPUDriver", FailureClass::kSoftware, false, true, true},
    {Category::kIpMotherboard, "IP Motherboard", FailureClass::kHardware, false, true, false},
    {Category::kLedFrontPanel, "Led Front Panel", FailureClass::kHardware, false, true, false},
    {Category::kLustre, "Lustre", FailureClass::kSoftware, false, true, false},
    {Category::kOmniPath, "Omni-Path", FailureClass::kHardware, false, true, false},
    {Category::kPowerBoard, "Power-Board", FailureClass::kHardware, false, true, false},
    {Category::kRibbonCable, "Ribbon Cable", FailureClass::kHardware, false, true, false},
    {Category::kSoftware, "Software", FailureClass::kSoftware, false, true, false},
    {Category::kSxm2Cable, "SXM2_Cable", FailureClass::kHardware, false, true, false},
    {Category::kSxm2Board, "SXM2-Board", FailureClass::kHardware, false, true, false},
    {Category::kUnknown, "Unknown", FailureClass::kUnknown, false, true, false},
}};

constexpr bool table_in_enum_order() {
  for (std::size_t i = 0; i < kCategoryTable.size(); ++i)
    if (static_cast<std::size_t>(kCategoryTable[i].category) != i) return false;
  return true;
}
static_assert(table_in_enum_order(), "kCategoryTable rows must follow the Category enum");

const CategoryInfo& info(Category category) noexcept {
  const auto row = static_cast<std::size_t>(category);
  return row < kCategoryTable.size() ? kCategoryTable[row] : kCategoryTable.back();
}

/// Normalizes a name for matching: ASCII letters lowercased and digits
/// kept, every other byte dropped.
std::string normalize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
    }
  }
  return out;
}

/// Alternative spellings seen in raw logs and in the paper's prose,
/// already normalized.
constexpr std::pair<std::string_view, Category> kAliases[] = {
    {"infiniband", Category::kInfiniband},
    {"powersupplyunit", Category::kPsu},
    {"portablebatchsystem", Category::kPbs},
    {"virtualmachine", Category::kVm},
    {"ip", Category::kIpMotherboard},
    {"cyclicredundancycheck", Category::kCrc},
    {"gpudriverrelated", Category::kGpuDriver},
    {"driver", Category::kGpuDriver},
};

/// Every accepted normalized name: the table's canonical spellings plus
/// the aliases.  Built once.
const std::unordered_map<std::string, Category>& category_names() {
  static const auto names = [] {
    std::unordered_map<std::string, Category> out;
    for (const auto& row : kCategoryTable) out.emplace(normalize(row.name), row.category);
    for (const auto& [alias, category] : kAliases) out.emplace(alias, category);
    return out;
  }();
  return names;
}

}  // namespace

std::string_view to_string(Category category) noexcept { return info(category).name; }

std::string_view to_string(FailureClass cls) noexcept {
  switch (cls) {
    case FailureClass::kHardware: return "hardware";
    case FailureClass::kSoftware: return "software";
    case FailureClass::kUnknown: return "unknown";
  }
  return "unknown";
}

FailureClass classify(Category category) noexcept { return info(category).cls; }

bool is_gpu_related(Category category) noexcept { return info(category).gpu_related; }

bool valid_for(Category category, Machine machine) noexcept {
  const auto& row = info(category);
  return machine == Machine::kTsubame2 ? row.on_tsubame2 : row.on_tsubame3;
}

std::span<const Category> categories_for(Machine machine) noexcept {
  static const auto t2 = [] {
    std::vector<Category> v;
    for (const auto& row : kCategoryTable)
      if (row.on_tsubame2) v.push_back(row.category);
    return v;
  }();
  static const auto t3 = [] {
    std::vector<Category> v;
    for (const auto& row : kCategoryTable)
      if (row.on_tsubame3) v.push_back(row.category);
    return v;
  }();
  return machine == Machine::kTsubame2 ? std::span<const Category>(t2)
                                       : std::span<const Category>(t3);
}

Result<Category> parse_category(std::string_view name) {
  const std::string key = normalize(name);
  if (key.empty())
    return Error(ErrorKind::kParse, "empty category name");
  const auto& names = category_names();
  if (const auto it = names.find(key); it != names.end()) return it->second;
  return Error(ErrorKind::kNotFound, "unknown failure category: '" + std::string(name) + "'");
}

}  // namespace tsufail::data
