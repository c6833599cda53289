#include "runner/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

namespace dtncache::runner {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      helpRequested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      parseErrors_.push_back("unexpected positional argument: " + arg);
      continue;
    }
    const auto eq = arg.find('=');
    std::string flag = arg;
    std::string value;  // empty for a bare flag
    if (eq != std::string::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    // A repeated flag is an error, not a silent override: `--sweep=a=1
    // --sweep=b=2` would otherwise run only the last axis.
    if (!values_.emplace(flag, std::move(value)).second)
      parseErrors_.push_back("flag given more than once: " + flag);
  }
}

std::optional<std::string> ArgParser::raw(const std::string& flag) {
  consumed_.push_back(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::getString(const std::string& flag, const std::string& defaultValue,
                                 const std::string& help, const std::string& defaultText) {
  registered_[flag] = Option{help, defaultText.empty() ? defaultValue : defaultText, false};
  return raw(flag).value_or(defaultValue);
}

double ArgParser::getDouble(const std::string& flag, double defaultValue,
                            const std::string& help, const std::string& defaultText) {
  std::ostringstream def;
  def << defaultValue;
  registered_[flag] = Option{help, defaultText.empty() ? def.str() : defaultText, false};
  const auto v = raw(flag);
  if (!v) return defaultValue;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing");
    return parsed;
  } catch (const std::exception&) {
    parseErrors_.push_back("bad numeric value for " + flag + ": '" + *v + "'");
    return defaultValue;
  }
}

std::int64_t ArgParser::getInt(const std::string& flag, std::int64_t defaultValue,
                               const std::string& help, const std::string& defaultText) {
  registered_[flag] =
      Option{help, defaultText.empty() ? std::to_string(defaultValue) : defaultText, false};
  const auto v = raw(flag);
  if (!v) return defaultValue;
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing");
    return parsed;
  } catch (const std::exception&) {
    parseErrors_.push_back("bad integer value for " + flag + ": '" + *v + "'");
    return defaultValue;
  }
}

bool ArgParser::getBool(const std::string& flag, const std::string& help) {
  registered_[flag] = Option{help, "false", true};
  return raw(flag).has_value();
}

std::vector<std::string> ArgParser::errors() const {
  std::vector<std::string> out = parseErrors_;
  for (const auto& [flag, value] : values_) {
    if (std::find(consumed_.begin(), consumed_.end(), flag) == consumed_.end())
      out.push_back("unknown flag: " + flag);
  }
  return out;
}

std::string ArgParser::helpText(const std::string& programName) const {
  std::ostringstream os;
  os << "usage: " << programName << " [options]\n\noptions:\n";
  for (const auto& [flag, opt] : registered_) {
    os << "  " << flag;
    if (!opt.isFlag) os << "=<value>";
    os << "\n      " << opt.help;
    if (!opt.isFlag) os << " (default: " << opt.defaultValue << ")";
    os << "\n";
  }
  os << "  --help\n      print this message\n";
  return os.str();
}

std::optional<int> ArgParser::finish(const std::string& programName) const {
  if (helpRequested_) {
    std::cout << helpText(programName);
    return 0;
  }
  const auto all = errors();
  if (all.empty()) return std::nullopt;
  for (const auto& e : all) std::cerr << "error: " << e << "\n";
  return 2;
}

std::ostream* openOutput(const std::string& path, std::ofstream& file) {
  if (path == "-") return &std::cout;
  file.open(path);
  if (!file.good()) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
  return &file;
}

}  // namespace dtncache::runner
