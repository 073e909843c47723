#include "cli/args.h"

#include <filesystem>
#include <fstream>

#include "util/strings.h"

namespace tsufail::cli {

Result<void> validate_writable_path(const std::string& path) {
  if (path.empty())
    return Error(ErrorKind::kValidation, "output path is empty");
  // Append mode leaves an existing file intact.  A file the probe had to
  // create is removed again, so a run that fails later leaves nothing.
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::binary | std::ios::app))
    return Error(ErrorKind::kIo, "cannot open '" + path + "' for writing");
  if (!existed) std::filesystem::remove(path, ec);
  return {};
}

Result<std::string> ParsedArgs::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end())
    return Error(ErrorKind::kNotFound, "missing required option --" + name);
  return it->second;
}

Result<long long> ParsedArgs::get_int(const std::string& name) const {
  auto text = get(name);
  if (!text.ok()) return text.error();
  auto value = parse_int(text.value());
  if (!value.ok()) return value.error().with_context("--" + name);
  return value;
}

Result<double> ParsedArgs::get_double(const std::string& name) const {
  auto text = get(name);
  if (!text.ok()) return text.error();
  auto value = parse_double(text.value());
  if (!value.ok()) return value.error().with_context("--" + name);
  return value;
}

ArgParser& ArgParser::option(OptionSpec spec) {
  options_.push_back(std::move(spec));
  return *this;
}

ArgParser& ArgParser::positional(PositionalSpec spec) {
  positionals_.push_back(std::move(spec));
  return *this;
}

ArgParser& ArgParser::passthrough(PositionalSpec spec) {
  passthrough_ = std::move(spec);
  return *this;
}

Result<ParsedArgs> ArgParser::parse(const std::vector<std::string>& args) const {
  ParsedArgs parsed;

  const auto find_option = [&](std::string_view name) -> const OptionSpec* {
    for (const auto& option : options_) {
      if (option.name == name) return &option;
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view token = args[i];
    if (token == "--") {
      auto& rest = passthrough_.has_value() ? parsed.passthrough_ : parsed.positionals_;
      rest.insert(rest.end(), args.begin() + static_cast<std::ptrdiff_t>(i) + 1, args.end());
      break;
    }
    if (token.rfind("--", 0) == 0) {
      token.remove_prefix(2);
      std::string name(token);
      std::optional<std::string> inline_value;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name.resize(eq);
      }
      const OptionSpec* spec = find_option(name);
      if (spec == nullptr)
        return Error(ErrorKind::kParse, "unknown option --" + name);
      if (spec->value_hint.empty()) {  // boolean flag
        if (inline_value.has_value())
          return Error(ErrorKind::kParse, "flag --" + name + " takes no value");
        parsed.values_[name] = "true";
        continue;
      }
      if (inline_value.has_value()) {
        parsed.values_[name] = *inline_value;
        continue;
      }
      if (i + 1 >= args.size())
        return Error(ErrorKind::kParse, "option --" + name + " requires a value");
      parsed.values_[name] = args[++i];
      continue;
    }
    parsed.positionals_.push_back(std::string(token));
  }

  for (const auto& option : options_) {
    if (!parsed.values_.contains(option.name) && option.default_value.has_value())
      parsed.values_[option.name] = *option.default_value;
  }

  std::size_t required = 0;
  for (const auto& positional : positionals_) required += positional.required;
  if (parsed.positionals_.size() < required)
    return Error(ErrorKind::kParse,
                 "missing required argument <" + positionals_[parsed.positionals_.size()].name +
                     ">");
  if (parsed.positionals_.size() > positionals_.size())
    return Error(ErrorKind::kParse, "unexpected extra argument '" +
                                        parsed.positionals_[positionals_.size()] + "'");
  if (passthrough_.has_value() && parsed.passthrough_.empty())
    return Error(ErrorKind::kParse, "missing required argument -- <" + passthrough_->name + ">");
  return parsed;
}

std::string ArgParser::help() const {
  std::string out = "usage: tsufail " + command_;
  for (const auto& positional : positionals_) {
    out += positional.required ? " <" + positional.name + ">" : " [" + positional.name + "]";
  }
  if (!options_.empty()) out += " [options]";
  if (passthrough_.has_value()) out += " -- <" + passthrough_->name + ">";
  out += "\n\n" + description_ + "\n";
  std::vector<PositionalSpec> arguments = positionals_;
  if (passthrough_.has_value()) arguments.push_back(*passthrough_);
  if (!arguments.empty()) {
    out += "\narguments:\n";
    for (const auto& positional : arguments) {
      out += "  " + positional.name + "  " + positional.help + "\n";
    }
  }
  if (!options_.empty()) {
    out += "\noptions:\n";
    for (const auto& option : options_) {
      std::string left = "--" + option.name;
      if (!option.value_hint.empty()) left += " <" + option.value_hint + ">";
      out += "  " + left;
      if (left.size() < 28) out.append(28 - left.size(), ' ');
      out += option.help;
      if (option.default_value.has_value()) out += " (default: " + *option.default_value + ")";
      out += "\n";
    }
  }
  return out;
}

}  // namespace tsufail::cli
