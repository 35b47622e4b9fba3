// The result one run prints, and the rules that decide whether it is
// correct. Header-only so the rule tests (tests/stats_test.cc) link
// nothing else.
#ifndef GBXBENCH_RESULT_H_
#define GBXBENCH_RESULT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gbxbench {

/// Everything the run prints.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // why `correct` is false
  std::map<std::string, std::pair<double, std::string>> metrics;  // value, unit

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Which metrics a run prints (the end-to-end or the per-layer set).
using Reported = std::function<bool(const std::string& name)>;

/// The checks made once every phase has run. error_rate must be 0, so
/// any failed operation makes the run not correct; so does a reported
/// metric that could not be measured.
inline void CheckResult(Result* res, const Reported& reported) {
  if (res->failed > 0) {
    res->Fail(std::to_string(res->failed) + " of " +
              std::to_string(res->attempted) + " operations failed");
  }
  for (const auto& [name, vu] : res->metrics) {
    if (reported(name) && !std::isfinite(vu.first)) {
      res->Fail("metric " + name + " has no finite value");
    }
  }
}

/// The result line: one JSON object. A metric that could not be measured
/// reads null.
inline std::string ResultJson(const Result& res, const Reported& reported) {
  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : res.metrics) {
    if (!reported(name)) continue;
    char value[64] = "null";
    if (std::isfinite(vu.first)) {
      std::snprintf(value, sizeof(value), "%.17g", vu.first);
    }
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           value + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace gbxbench

#endif  // GBXBENCH_RESULT_H_
