// Small shared helpers for the sbx_perfbench subcommands: strict
// --key=value flags, a one-line JSON writer, and quantiles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// --key=value flags; every key must be consumed by the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + a);
      const auto eq = a.find('=');
      if (eq == std::string::npos) {
        values_[a.substr(2)] = "1";
      } else {
        values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    }
  }
  std::string str(const std::string& key) {
    used_.push_back(key);
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  std::string opt(const std::string& key) {
    used_.push_back(key);
    const auto it = values_.find(key);
    return it == values_.end() ? std::string() : it->second;
  }
  std::uint64_t num(const std::string& key, std::uint64_t def) {
    const std::string s = opt(key);
    return s.empty() ? def : std::stoull(s);
  }
  bool flag(const std::string& key) { return !opt(key).empty(); }
  /// Throws on any flag no accessor asked for.
  void finish() const {
    for (const auto& [k, v] : values_) {
      if (std::find(used_.begin(), used_.end(), k) == used_.end()) {
        throw std::invalid_argument("unknown flag --" + k);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> used_;
};

/// Flat JSON object written as one line (numbers at full precision).
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q.push_back('\\');
      q.push_back(c);
    }
    q.push_back('"');
    return raw(key, q);
  }
  /// Inserts already-serialized JSON (an array or nested object).
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Linear-interpolation quantile of an unsorted sample (0 when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

int cmd_gen(Args& args);
int cmd_serve(Args& args);
int cmd_shutdown(Args& args);
int cmd_fig1(Args& args);

}  // namespace perfbench
