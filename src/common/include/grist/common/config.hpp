// Key-value run configuration, mirroring GRIST's namelist-style control
// files ("grist.nml"). Supports `key = value` lines, '#'/'!' comments, and
// typed access with defaults.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace grist {

class Config {
 public:
  Config() = default;

  /// Parse `key = value` text (one pair per line). Throws std::runtime_error
  /// on malformed lines so bad run scripts fail fast.
  static Config fromString(const std::string& text);
  static Config fromFile(const std::string& path);

  void set(const std::string& key, const std::string& value);

  bool has(const std::string& key) const;

  std::string getString(const std::string& key, const std::string& fallback) const;
  /// Numeric values must be one whole token (grist::parseNumber): trailing
  /// characters, a fraction for an int, NaN/inf and overflow throw
  /// std::runtime_error naming the key and the token.
  int getInt(const std::string& key, int fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  bool getBool(const std::string& key, bool fallback) const;

  /// Value if present; std::nullopt otherwise.
  std::optional<std::string> find(const std::string& key) const;

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

} // namespace grist
