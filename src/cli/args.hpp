// Minimal command-line argument parser for the gdp_tool binary.
//
// Grammar:  gdp_tool <command> [--flag value]... [--switch]...
// Flags are declared by the command implementations; unknown flags are an
// error (catches typos in scripts).  Pure functions over string vectors so
// the whole layer is unit-testable without a process boundary.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gdp::cli {

class Args {
 public:
  // Parse argv-style tokens (excluding the program name and command).
  // `known_flags` lists the accepted "--name" flags; every flag takes one
  // value except those listed in `known_switches`.
  // Throws std::invalid_argument on unknown flags / missing values.
  static Args Parse(const std::vector<std::string>& tokens,
                    const std::vector<std::string>& known_flags,
                    const std::vector<std::string>& known_switches = {});

  [[nodiscard]] bool HasSwitch(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> Get(const std::string& name) const;
  [[nodiscard]] std::string GetOr(const std::string& name,
                                  const std::string& fallback) const;

  // Typed accessors with validation: a non-numeric or out-of-range value
  // throws std::invalid_argument naming the flag.
  [[nodiscard]] double GetDouble(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t GetInt(const std::string& name,
                                    std::int64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> switches_;
};

}  // namespace gdp::cli
