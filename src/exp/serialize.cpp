#include "exp/serialize.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace dimmer::exp {

std::string spec_to_json(const TrialSpec& spec) {
  std::ostringstream os;
  os << "{\"scenario\": " << util::json_quote(spec.scenario)
     << ", \"seed\": " << spec.seed;
  if (!spec.params.empty()) {
    os << ", \"params\": ";
    util::json_object(os, spec.params,
                      [&](double v) { os << util::json_number(v); });
  }
  if (!spec.tags.empty()) {
    os << ", \"tags\": ";
    util::json_object(os, spec.tags,
                      [&](const std::string& v) { os << util::json_quote(v); });
  }
  if (!spec.fault_plan.empty())
    os << ", \"fault_plan\": " << fault::to_json(spec.fault_plan);
  os << "}";
  return os.str();
}

TrialSpec spec_from_value(const util::json::Value& v) {
  TrialSpec spec;
  spec.scenario = v.at("scenario").as_string();
  spec.seed = v.at("seed").as_u64();
  if (const util::json::Value* params = v.find("params"))
    for (const auto& [k, p] : params->as_object())
      spec.params[k] = p.as_double();
  if (const util::json::Value* tags = v.find("tags"))
    for (const auto& [k, t] : tags->as_object()) spec.tags[k] = t.as_string();
  if (const util::json::Value* plan = v.find("fault_plan"))
    spec.fault_plan = fault::plan_from_json(*plan);
  return spec;
}

std::string result_to_json(const TrialResult& r) {
  std::ostringstream os;
  os << "{\"ok\": " << (r.ok ? "true" : "false");
  if (!r.ok) os << ", \"error\": " << util::json_quote(r.error);
  os << ", \"wall_seconds\": " << util::json_number(r.wall_seconds);
  if (!r.metrics.empty()) {
    os << ", \"metrics\": ";
    util::json_object(os, r.metrics,
                      [&](double v) { os << util::json_number(v); });
  }
  if (!r.stats.empty()) {
    os << ", \"stats\": ";
    util::json_object(os, r.stats, [&](const util::RunningStats& s) {
      os << "{\"count\": " << s.count();
      if (s.count() > 0)
        os << ", \"mean\": " << util::json_number(s.mean())
           << ", \"m2\": " << util::json_number(s.m2())
           << ", \"min\": " << util::json_number(s.min())
           << ", \"max\": " << util::json_number(s.max());
      os << "}";
    });
  }
  if (!r.series.empty()) {
    os << ", \"series\": ";
    util::json_object(os, r.series, [&](const std::vector<double>& xs) {
      os << "[";
      for (std::size_t i = 0; i < xs.size(); ++i)
        os << (i ? ", " : "") << util::json_number(xs[i]);
      os << "]";
    });
  }
  if (!r.registry.empty()) os << ", \"registry\": " << r.registry.to_json();
  os << "}";
  return os.str();
}

TrialResult result_from_value(const util::json::Value& v) {
  TrialResult r;
  r.ok = v.at("ok").as_bool();
  if (const util::json::Value* err = v.find("error"))
    r.error = err->as_string();
  r.wall_seconds = v.at("wall_seconds").as_double();
  if (const util::json::Value* metrics = v.find("metrics"))
    for (const auto& [k, m] : metrics->as_object())
      r.metrics[k] = m.as_double();
  if (const util::json::Value* stats = v.find("stats")) {
    for (const auto& [k, s] : stats->as_object()) {
      std::size_t count = static_cast<std::size_t>(s.at("count").as_u64());
      r.stats[k] =
          count == 0
              ? util::RunningStats{}
              : util::RunningStats::restore(
                    count, s.at("mean").as_double(), s.at("m2").as_double(),
                    s.at("min").as_double(), s.at("max").as_double());
    }
  }
  if (const util::json::Value* series = v.find("series")) {
    for (const auto& [k, xs] : series->as_object()) {
      std::vector<double>& dst = r.series[k];
      for (const util::json::Value& x : xs.as_array())
        dst.push_back(x.as_double());
    }
  }
  if (const util::json::Value* reg = v.find("registry"))
    r.registry = obs::MetricsRegistry::from_value(*reg);
  return r;
}

std::uint64_t spec_digest(const TrialSpec& spec) {
  return util::fnv1a64(spec_to_json(spec));
}

std::uint64_t specs_digest(const std::vector<TrialSpec>& specs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Fold (index, digest) pairs so reordering two specs changes the total.
    std::uint64_t d = spec_digest(specs[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (i >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
    for (int b = 0; b < 8; ++b) {
      h ^= (d >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace dimmer::exp
