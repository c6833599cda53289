#pragma once

/// \file flat_json.hpp
/// The flat-JSON config machinery shared by every dotted-key namespace.
///
/// Extracted from config_io so the peer daemon's `peer.*` config speaks the
/// same format (and produces the same diagnostics) as the experiment
/// config: a deliberately minimal flat-JSON reader (strings, numbers,
/// booleans; no nesting or arrays — the format is ours, and a third-party
/// JSON dependency would be heavier than the feature), plus a field binder
/// whose one registration pass drives dump, load, and key validation.
///
/// Unknown keys are hard errors *with a suggestion*: the binder remembers
/// every key it bound, so a typo reports the nearest valid key by edit
/// distance ("unknown config key 'cache.warmStarts'; did you mean
/// 'cache.warmStart'?") instead of silently running the defaults.

#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/assert.hpp"

namespace dtncache::runner {

using JsonValue = std::variant<double, bool, std::string>;

/// Parse one flat JSON object ({"dotted.key": value, ...}). Throws
/// InvariantViolation on malformed input or trailing characters.
std::map<std::string, JsonValue> parseFlatJson(const std::string& text);

/// Levenshtein distance — small strings, classic DP; used only on the
/// error path so clarity beats cleverness.
std::size_t editDistance(const std::string& a, const std::string& b);

/// The valid key closest to `key` by edit distance, or empty when nothing
/// is within a plausible-typo radius (half the key length).
std::string nearestKey(const std::string& key, const std::vector<std::string>& known);

/// One registration pass drives dump, load, and key validation: bindAll-
/// style functions call numeric/boolean/text/enumeration once per field,
/// and the binder either emits JSON (kDump) or consumes parsed values
/// (kLoad) while recording every valid key for diagnostics.
struct FieldBinder {
  enum class Mode { kDump, kLoad } mode = Mode::kDump;
  std::ostringstream* out = nullptr;
  const std::map<std::string, JsonValue>* values = nullptr;
  mutable std::vector<std::string> knownKeys;
  mutable bool first = true;

  template <typename T>
  void numeric(const std::string& key, T& field) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      emitNumber(key, static_cast<double>(field));
      return;
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<double>(it->second),
                         "key '" << key << "' must be a number");
      const double v = std::get<double>(it->second);
      if constexpr (std::is_integral_v<T>) {
        DTNCACHE_CHECK_MSG(integral(v), "key '" << key << "' must be integral");
        // Casting a double that T cannot hold is undefined ([conv.fpint]).
        // Both bounds are exact in double: min() is 0 or -2^k, and
        // max() + 1 rounds to 2^k.
        const double lo = static_cast<double>(std::numeric_limits<T>::min());
        const double hi = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
        DTNCACHE_CHECK_MSG(v >= lo && v < hi, "key '" << key << "' value " << v
                                                  << " is out of range for its type");
      }
      field = static_cast<T>(v);
    }
  }

  void boolean(const std::string& key, bool& field) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      emitRaw(key, field ? "true" : "false");
      return;
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<bool>(it->second),
                         "key '" << key << "' must be a boolean");
      field = std::get<bool>(it->second);
    }
  }

  void text(const std::string& key, std::string& field) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      emitText(key, field);
      return;
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<std::string>(it->second),
                         "key '" << key << "' must be a string");
      field = std::get<std::string>(it->second);
    }
  }

  template <typename Enum>
  void enumeration(const std::string& key, Enum& field,
                   const std::vector<std::pair<Enum, std::string>>& names) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      for (const auto& [value, name] : names)
        if (value == field) {
          emitText(key, name);
          return;
        }
      DTNCACHE_CHECK_MSG(false, "unnamed enum value for key '" << key << "'");
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<std::string>(it->second),
                         "key '" << key << "' must be a string");
      const std::string& s = std::get<std::string>(it->second);
      for (const auto& [value, name] : names)
        if (name == s) {
          field = value;
          return;
        }
      DTNCACHE_CHECK_MSG(false, "unknown value '" << s << "' for key '" << key << "'");
    }
  }

  /// Load-mode epilogue: every parsed key must have been bound. Reports
  /// each stranger with its nearest valid key.
  void requireAllKnown() const;

 private:
  static bool integral(double v);
  void emitText(const std::string& key, const std::string& s) const;
  void emitNumber(const std::string& key, double v) const;
  void emitRaw(const std::string& key, const std::string& v) const;
};

}  // namespace dtncache::runner
