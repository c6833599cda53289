#include "runner/flat_json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>

#include "obs/tracer.hpp"

namespace dtncache::runner {
namespace {

bool isNumberChar(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

/// Levenshtein distance — small strings, classic DP; used only on the
/// error path so clarity beats cleverness.
std::size_t editDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      diag = up;
    }
  }
  return row[b.size()];
}

/// The valid key closest to `key` by edit distance, or empty when nothing
/// is within a plausible-typo radius (half the key length).
std::string nearestKey(const std::string& key, const std::vector<std::string>& known) {
  std::string best;
  std::size_t bestDistance = std::max<std::size_t>(key.size() / 2, 2) + 1;
  for (const std::string& candidate : known) {
    const std::size_t d = editDistance(key, candidate);
    if (d < bestDistance) {
      bestDistance = d;
      best = candidate;
    }
  }
  return best;
}

class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  std::map<std::string, JsonValue> parse() {
    std::map<std::string, JsonValue> out;
    skipWs();
    expect('{');
    skipWs();
    for (bool more = peek() != '}'; more;) {
      skipWs();
      key_ = parseString();
      literal_.clear();
      skipWs();
      expect(':');
      skipWs();
      const std::size_t valueStart = pos_;
      out[key_] = parseValue();
      literal_ = text_.substr(valueStart, pos_ - valueStart);
      skipWs();
      more = peek() == ',';
      pos_ += more ? 1 : 0;
    }
    expect('}');
    skipWs();
    if (pos_ < text_.size()) fail("trailing characters after the closing '}'");
    return out;
  }

 private:
  /// A syntax error, placed by the key being read or the last key and value.
  [[noreturn]] void fail(const std::string& what) const {
    std::string where;
    if (!key_.empty())
      where = literal_.empty() ? " at key '" + key_ + "'"
                               : " after key '" + key_ + "' value " + literal_;
    rejectConfig("config JSON" + where + ": " + what);
  }
  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "' at offset " + std::to_string(pos_) +
           ", found '" + text_[pos_] + "'");
    ++pos_;
  }
  void skipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  std::string parseString() {
    expect('"');
    std::string s;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default:
            fail(std::string("unsupported escape \\") + esc);
        }
      }
      s += c;
    }
    ++pos_;
    return s;
  }
  JsonValue parseValue() {
    const char c = peek();
    if (c == '"') return parseString();
    for (const std::string word : {"true", "false"})
      if (text_.compare(pos_, word.size(), word) == 0) {
        pos_ += word.size();
        return word == "true";
      }
    // Number.
    std::size_t end = pos_;
    while (end < text_.size() && isNumberChar(text_[end])) ++end;
    if (end == pos_) fail(std::string("expected a value, found '") + c + "'");
    const std::string num = text_.substr(pos_, end - pos_);
    char* stop = nullptr;
    errno = 0;
    const double v = std::strtod(num.c_str(), &stop);
    if (stop != num.c_str() + num.size()) fail("malformed number '" + num + "'");
    if (errno == ERANGE)
      rejectConfig("key '" + key_ + "' value " + num + " is out of range for a double");
    pos_ = end;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string key_;      ///< the key being read, or the last one read
  std::string literal_;  ///< its value as written, once read
};

}  // namespace

void rejectConfig(const std::string& message) { throw InvariantViolation(message); }

std::map<std::string, JsonValue> parseFlatJson(const std::string& text) {
  FlatJsonParser parser(text);
  return parser.parse();
}

std::string readConfigFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) rejectConfig("cannot open config file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> splitList(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

std::vector<Assignment> splitAssignments(const std::string& spec) {
  std::vector<Assignment> clauses;
  for (const std::string& clause : splitList(spec, ';')) {
    const auto eq = clause.find('=');
    if (eq == std::string::npos || eq == 0)
      rejectConfig("clause '" + clause + "' is not key=value");
    clauses.push_back({clause.substr(0, eq), clause.substr(eq + 1)});
  }
  return clauses;
}

std::string jsonScalar(const std::string& raw) {
  if (raw == "true" || raw == "false") return raw;
  // Only number characters, all read by strtod (which also reads "0x10").
  if (!raw.empty() && std::all_of(raw.begin(), raw.end(), isNumberChar)) {
    char* end = nullptr;
    std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() + raw.size()) return raw;
  }
  std::string quoted;
  obs::appendJsonString(quoted, raw);
  return quoted;
}

std::string assignmentsJson(const std::vector<Assignment>& clauses) {
  std::string json = "{";
  for (const auto& [key, value] : clauses) {
    if (json.size() > 1) json += ", ";
    obs::appendJsonString(json, key);
    json += ": " + jsonScalar(value);
  }
  return json + "}";
}

void FieldBinder::requireAllKnown() const {
  for (const auto& [key, value] : *values) {
    (void)value;
    if (std::find(knownKeys.begin(), knownKeys.end(), key) != knownKeys.end()) continue;
    const std::string suggestion = nearestKey(key, knownKeys);
    rejectConfig("unknown config key '" + key + "'" +
                 (suggestion.empty() ? std::string{} : "; did you mean '" + suggestion + "'?"));
  }
}

void FieldBinder::rejectValue(const std::string& key, const JsonValue& value,
                              const std::string& reason) {
  std::string literal;
  if (const auto* number = std::get_if<double>(&value)) {
    char buf[32];  // the shortest text that reads back: 4294967299, not 4.29497e+09
    literal.assign(buf, std::to_chars(buf, buf + sizeof buf, *number).ptr);
  } else if (const auto* flag = std::get_if<bool>(&value)) {
    literal = *flag ? "true" : "false";
  } else {
    obs::appendJsonString(literal, std::get<std::string>(value));
  }
  rejectConfig("key '" + key + "' value " + literal + " " + reason);
}

const JsonValue* FieldBinder::find(const std::string& key) const {
  knownKeys.push_back(key);
  const auto it = values->find(key);
  return it == values->end() ? nullptr : &it->second;
}

void FieldBinder::emitText(const std::string& key, const std::string& s) const {
  std::string quoted;
  obs::appendJsonString(quoted, s);
  emitRaw(key, quoted);
}

void FieldBinder::emitNumber(const std::string& key, double v) const {
  std::ostringstream num;
  num.precision(17);
  num << v;
  emitRaw(key, num.str());
}

void FieldBinder::emitRaw(const std::string& key, const std::string& v) const {
  if (!first) *out << ",\n";
  first = false;
  *out << "  \"" << key << "\": " << v;
}

}  // namespace dtncache::runner
