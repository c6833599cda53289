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
/// 'cache.warmStart'?") instead of silently running the defaults. Every
/// rejection (syntax, key, type, range) is one plain line naming the key and
/// the value as given, which a CLI prints as is; a CLI's `--set` reaches the
/// same loader through splitAssignments and assignmentsJson.

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "sim/assert.hpp"

namespace dtncache::runner {

using JsonValue = std::variant<double, bool, std::string>;

/// Bad config input: throws InvariantViolation with `message` alone (no
/// check text or source location).
[[noreturn]] void rejectConfig(const std::string& message);

/// Parse one flat JSON object ({"dotted.key": value, ...}). Throws
/// InvariantViolation on malformed input or trailing characters.
std::map<std::string, JsonValue> parseFlatJson(const std::string& text);

/// The whole text of a config file; a plain error when it cannot be opened.
std::string readConfigFile(const std::string& path);

/// The non-empty pieces of `text` between `sep`s.
std::vector<std::string> splitList(const std::string& text, char sep);

/// One `key=value` clause of a `--set` or `--sweep` spec.
using Assignment = std::pair<std::string, std::string>;

/// Split "key=value;key2=value2" on ';', then each clause on its first '=',
/// so a value may hold ',' (a `--sweep` value list, `peer.peers`). Empty
/// clauses are skipped; one with no key or no '=' is rejected.
std::vector<Assignment> splitAssignments(const std::string& spec);

/// Raw value text → JSON scalar literal: a number or boolean passes
/// through, anything else ("epidemic", "0x10", "nan") is quoted.
std::string jsonScalar(const std::string& raw);

/// The clauses as one flat-JSON object for a config loader, values through
/// jsonScalar: a `--set` value is checked exactly like a config file's.
std::string assignmentsJson(const std::vector<Assignment>& clauses);

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
    if (mode == Mode::kDump) return emitNumber(key, static_cast<double>(field));
    const JsonValue* value = find(key);
    if (value == nullptr) return;
    const double v = as<double>(key, *value, "must be a number");
    if constexpr (std::is_integral_v<T>) {
      if (!integral(v)) rejectValue(key, *value, "must be an integer");
      // Casting a double that T cannot hold is undefined ([conv.fpint]).
      // Both bounds are exact in double: min() is 0 or -2^k, and
      // max() + 1 rounds to 2^k.
      using Limits = std::numeric_limits<T>;
      if (!(v >= static_cast<double>(Limits::min()) &&
            v < static_cast<double>(Limits::max()) + 1.0))
        rejectValue(key, *value,
                    "is out of range for its type (" + std::to_string(Limits::min()) +
                        " to " + std::to_string(Limits::max()) + ")");
    }
    field = static_cast<T>(v);
  }

  void boolean(const std::string& key, bool& field) const {
    if (mode == Mode::kDump) return emitRaw(key, field ? "true" : "false");
    if (const JsonValue* value = find(key))
      field = as<bool>(key, *value, "must be true or false");
  }

  void text(const std::string& key, std::string& field) const {
    if (mode == Mode::kDump) return emitText(key, field);
    if (const JsonValue* value = find(key))
      field = as<std::string>(key, *value, "must be a string");
  }

  template <typename Enum>
  void enumeration(const std::string& key, Enum& field,
                   const std::vector<std::pair<Enum, std::string>>& names) const {
    const JsonValue* value = mode == Mode::kLoad ? find(key) : nullptr;
    std::string choices;
    for (const auto& [option, name] : names) {
      if (mode == Mode::kDump && option == field) return emitText(key, name);
      if (value != nullptr && *value == JsonValue(name)) {
        field = option;
        return;
      }
      choices += (choices.empty() ? "" : ", ") + name;
    }
    DTNCACHE_CHECK_MSG(mode == Mode::kLoad, "unnamed enum value for key '" << key << "'");
    if (value != nullptr) rejectValue(key, *value, "is not one of " + choices);
  }

  /// `config` as a flat JSON object: every field `bind` registers.
  template <typename Config>
  static std::string dump(const Config& config, void (*bind)(const FieldBinder&, Config&)) {
    std::ostringstream out;
    FieldBinder b;
    b.out = &out;
    out << "{\n";
    bind(b, const_cast<Config&>(config));  // dump never mutates
    out << "\n}\n";
    return out.str();
  }

  /// Apply a flat JSON object to `config` through `bind`; a key `bind`
  /// does not register is rejected with its nearest valid key.
  template <typename Config>
  static void load(Config& config, const std::string& json,
                   void (*bind)(const FieldBinder&, Config&)) {
    const auto values = parseFlatJson(json);
    FieldBinder b;
    b.mode = Mode::kLoad;
    b.values = &values;
    bind(b, config);
    b.requireAllKnown();
  }

 private:
  /// Load mode: the parsed value of `key`, or null; records `key` as valid.
  const JsonValue* find(const std::string& key) const;
  template <typename V>
  static const V& as(const std::string& key, const JsonValue& value, const char* expected) {
    if (!std::holds_alternative<V>(value)) rejectValue(key, value, expected);
    return std::get<V>(value);
  }
  /// Load-mode epilogue: every parsed key must have been bound.
  void requireAllKnown() const;
  static bool integral(double v) { return std::nearbyint(v) == v; }
  /// Throws "key 'K' value V <reason>", V as the JSON literal of `value`.
  [[noreturn]] static void rejectValue(const std::string& key, const JsonValue& value,
                                       const std::string& reason);
  void emitText(const std::string& key, const std::string& s) const;
  void emitNumber(const std::string& key, double v) const;
  void emitRaw(const std::string& key, const std::string& v) const;
};

}  // namespace dtncache::runner
