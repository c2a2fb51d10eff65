#include "cli/args.hpp"

#include <algorithm>
#include <stdexcept>
#include <system_error>

#include "common/text_reader.hpp"

namespace gdp::cli {

namespace {

bool Contains(const std::vector<std::string>& xs, const std::string& x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

// A flag's value, parsed whole as a T; errors name the flag.
template <typename T>
T GetNumber(const Args& args, const std::string& name, T fallback,
            const char* kind) {
  const auto raw = args.Get(name);
  if (!raw) {
    return fallback;
  }
  T value{};
  if (const std::errc ec = gdp::common::ParseNumber(*raw, value);
      ec != std::errc{}) {
    const bool range = ec == std::errc::result_out_of_range;
    throw std::invalid_argument("flag '--" + name + "': " +
                                (range ? "" : "bad ") + kind + " '" + *raw +
                                (range ? "' is out of range" : "'"));
  }
  return value;
}

}  // namespace

Args Args::Parse(const std::vector<std::string>& tokens,
                 const std::vector<std::string>& known_flags,
                 const std::vector<std::string>& known_switches) {
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected a --flag, got '" + token + "'");
    }
    const std::string name = token.substr(2);
    if (Contains(known_switches, name)) {
      args.switches_.push_back(name);
      continue;
    }
    if (!Contains(known_flags, name)) {
      throw std::invalid_argument("unknown flag '--" + name + "'");
    }
    if (i + 1 >= tokens.size()) {
      throw std::invalid_argument("flag '--" + name + "' requires a value");
    }
    args.values_[name] = tokens[++i];
  }
  return args;
}

bool Args::HasSwitch(const std::string& name) const {
  return std::find(switches_.begin(), switches_.end(), name) != switches_.end();
}

std::optional<std::string> Args::Get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string Args::GetOr(const std::string& name,
                        const std::string& fallback) const {
  return Get(name).value_or(fallback);
}

double Args::GetDouble(const std::string& name, double fallback) const {
  return GetNumber(*this, name, fallback, "number");
}

std::int64_t Args::GetInt(const std::string& name, std::int64_t fallback) const {
  return GetNumber(*this, name, fallback, "integer");
}

}  // namespace gdp::cli
