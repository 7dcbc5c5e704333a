#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace dimmer::obs {

void Histogram::add(double v) {
  DIMMER_CHECK(counts.size() == upper_bounds.size() + 1);
  // First bucket whose upper bound contains v; the overflow bucket otherwise.
  std::size_t b = static_cast<std::size_t>(
      std::lower_bound(upper_bounds.begin(), upper_bounds.end(), v) -
      upper_bounds.begin());
  ++counts[b];
  ++count;
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
}

void Histogram::merge(const Histogram& o) {
  if (o.count == 0 && o.upper_bounds.empty()) return;
  if (upper_bounds.empty() && count == 0) {
    *this = o;
    return;
  }
  DIMMER_REQUIRE(upper_bounds == o.upper_bounds,
                 "histogram merge with mismatched bucket bounds");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
  count += o.count;
  sum += o.sum;
  min = std::min(min, o.min);
  max = std::max(max, o.max);
}

std::uint64_t& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), 0).first;
  return it->second;
}

double& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), 0.0).first;
  return it->second;
}

Histogram& MetricsRegistry::histogram(
    std::string_view name, std::initializer_list<double> upper_bounds) {
  return histogram_impl(name, upper_bounds.begin(), upper_bounds.size());
}

Histogram& MetricsRegistry::histogram(
    std::string_view name, const std::vector<double>& upper_bounds) {
  return histogram_impl(name, upper_bounds.data(), upper_bounds.size());
}

Histogram& MetricsRegistry::histogram_impl(std::string_view name,
                                           const double* bounds,
                                           std::size_t n) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    DIMMER_REQUIRE(n > 0, "histogram bucket bounds required on first use");
    DIMMER_REQUIRE(std::is_sorted(bounds, bounds + n) &&
                       std::adjacent_find(bounds, bounds + n) == bounds + n,
                   "histogram bucket bounds must be strictly ascending");
    Histogram h;
    h.upper_bounds.assign(bounds, bounds + n);
    h.counts.assign(n + 1, 0);
    it = histograms_.emplace(std::string(name), std::move(h)).first;
  } else if (n > 0) {
    DIMMER_REQUIRE(it->second.upper_bounds.size() == n &&
                       std::equal(bounds, bounds + n,
                                  it->second.upper_bounds.begin()),
                   "histogram re-registered with different bucket bounds");
  }
  return it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  for (const auto& [k, v] : o.counters_) counters_[k] += v;
  for (const auto& [k, v] : o.gauges_) gauges_[k] = v;
  for (const auto& [k, h] : o.histograms_) {
    auto it = histograms_.find(k);
    if (it == histograms_.end())
      histograms_.emplace(k, h);
    else
      it->second.merge(h);
  }
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  auto section = [&](const char* name) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": ";
  };
  if (!counters_.empty()) {
    section("counters");
    util::json_object(os, counters_, [&](std::uint64_t v) { os << v; });
  }
  if (!gauges_.empty()) {
    section("gauges");
    util::json_object(os, gauges_,
                      [&](double v) { os << util::json_number(v); });
  }
  if (!histograms_.empty()) {
    section("histograms");
    util::json_object(os, histograms_, [&](const Histogram& h) {
      os << "{\"upper_bounds\": [";
      for (std::size_t i = 0; i < h.upper_bounds.size(); ++i)
        os << (i ? ", " : "") << util::json_number(h.upper_bounds[i]);
      os << "], \"counts\": [";
      for (std::size_t i = 0; i < h.counts.size(); ++i)
        os << (i ? ", " : "") << h.counts[i];
      os << "], \"count\": " << h.count
         << ", \"sum\": " << util::json_number(h.sum);
      if (h.count > 0)
        os << ", \"min\": " << util::json_number(h.min)
           << ", \"max\": " << util::json_number(h.max);
      os << "}";
    });
  }
  os << "}";
  return os.str();
}

MetricsRegistry MetricsRegistry::from_json(const std::string& text) {
  return from_value(util::json::parse(text));
}

MetricsRegistry MetricsRegistry::from_value(const util::json::Value& v) {
  MetricsRegistry r;
  if (const util::json::Value* counters = v.find("counters"))
    for (const auto& [name, c] : counters->as_object())
      r.counter(name) = c.as_u64();
  if (const util::json::Value* gauges = v.find("gauges"))
    for (const auto& [name, g] : gauges->as_object()) r.gauge(name) = g.as_double();
  if (const util::json::Value* histograms = v.find("histograms")) {
    for (const auto& [name, h] : histograms->as_object()) {
      std::vector<double> bounds;
      for (const util::json::Value& b : h.at("upper_bounds").as_array())
        bounds.push_back(b.as_double());
      Histogram& hist = r.histogram(name, bounds);
      const auto& counts = h.at("counts").as_array();
      DIMMER_REQUIRE(counts.size() == bounds.size() + 1,
                     "histogram counts/bounds size mismatch");
      for (std::size_t i = 0; i < counts.size(); ++i)
        hist.counts[i] = counts[i].as_u64();
      hist.count = h.at("count").as_u64();
      hist.sum = h.at("sum").as_double();
      // min/max are only serialized for non-empty histograms (the sentinels
      // are +/-inf, which JSON cannot carry); an empty one keeps them.
      if (hist.count > 0) {
        hist.min = h.at("min").as_double();
        hist.max = h.at("max").as_double();
        DIMMER_REQUIRE(hist.min <= hist.max, "histogram min > max");
      }
      std::uint64_t bucket_total = 0;
      for (std::uint64_t c : hist.counts) bucket_total += c;
      DIMMER_REQUIRE(bucket_total == hist.count,
                     "histogram bucket counts do not sum to count");
    }
  }
  return r;
}

}  // namespace dimmer::obs
