#pragma once

/// \file args.hpp
/// Minimal command-line flag parser for the CLI tools.
///
/// Accepts `--key=value`, `--key value`, and bare `--flag` forms. Every
/// lookup registers the option (with its help text) so `helpText()` is
/// always complete and `unknownFlags()` can reject typos — an unknown
/// `--shceme` silently running the default experiment would be worse than
/// an error.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dtncache::runner {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Typed lookups; each registers the option for help/validation. Help
  /// shows `defaultText` if set (e.g. "the preset's value"), else the default.
  std::string getString(const std::string& flag, const std::string& defaultValue,
                        const std::string& help, const std::string& defaultText = "");
  double getDouble(const std::string& flag, double defaultValue, const std::string& help,
                   const std::string& defaultText = "");
  std::int64_t getInt(const std::string& flag, std::int64_t defaultValue,
                      const std::string& help, const std::string& defaultText = "");
  bool getBool(const std::string& flag, const std::string& help);  ///< bare flag

  bool helpRequested() const { return helpRequested_; }

  /// Was the flag explicitly supplied on the command line? (Use to layer
  /// flags over a loaded config file: only explicit flags override.)
  bool provided(const std::string& flag) const { return values_.count(flag) > 0; }

  /// Report a bad flag value that the caller found (listed by errors()).
  void addError(const std::string& message) { parseErrors_.push_back(message); }

  /// Flags supplied on the command line that no lookup claimed, flags
  /// supplied more than once, and values that failed to parse. Call after
  /// all lookups.
  std::vector<std::string> errors() const;

  /// Usage text from the registered options.
  std::string helpText(const std::string& programName) const;

  /// After all lookups: prints the usage for --help (status 0), or every
  /// error and the usage (status 2). nullopt means carry on.
  std::optional<int> finish(const std::string& programName) const;

 private:
  struct Option {
    std::string help;
    std::string defaultValue;
    bool isFlag = false;
  };

  std::optional<std::string> raw(const std::string& flag);

  std::map<std::string, std::string> values_;   // flag -> raw value
  std::map<std::string, Option> registered_;    // in help order (sorted)
  std::vector<std::string> consumed_;
  std::vector<std::string> parseErrors_;
  bool helpRequested_ = false;
};

}  // namespace dtncache::runner
