#include "grist/common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "grist/common/parse.hpp"

namespace grist {
namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// The whole value as one finite number of type T, or a runtime_error
/// naming the key and the token.
template <typename T>
T parseValue(const std::string& key, const std::string& token) {
  const auto v = parseNumber<T>(token, std::numeric_limits<T>::lowest(),
                                std::numeric_limits<T>::max());
  if (!v) {
    throw std::runtime_error("Config: '" + key + "' expects " +
                             (std::numeric_limits<T>::is_integer ? "an integer"
                                                                 : "a finite number") +
                             ", got '" + token + "'");
  }
  return *v;
}

} // namespace

Config Config::fromString(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip namelist-style comments.
    for (const char marker : {'#', '!'}) {
      const auto pos = line.find(marker);
      if (pos != std::string::npos) line.erase(pos);
    }
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: malformed line " + std::to_string(lineno) +
                               ": '" + stripped + "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key at line " + std::to_string(lineno));
    }
    cfg.set(key, value);
  }
  return cfg;
}

Config Config::fromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return fromString(buf.str());
}

void Config::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

bool Config::has(const std::string& key) const { return entries_.count(key) > 0; }

std::optional<std::string> Config::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::getString(const std::string& key, const std::string& fallback) const {
  return find(key).value_or(fallback);
}

int Config::getInt(const std::string& key, int fallback) const {
  const auto v = find(key);
  return v ? parseValue<int>(key, *v) : fallback;
}

double Config::getDouble(const std::string& key, double fallback) const {
  const auto v = find(key);
  return v ? parseValue<double>(key, *v) : fallback;
}

bool Config::getBool(const std::string& key, bool fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  const std::string s = lower(*v);
  if (s == "true" || s == "1" || s == "yes" || s == ".true.") return true;
  if (s == "false" || s == "0" || s == "no" || s == ".false.") return false;
  throw std::runtime_error("Config: non-boolean value for '" + key + "': " + *v);
}

} // namespace grist
