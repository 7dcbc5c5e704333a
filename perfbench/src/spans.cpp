#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last, tagged with their tracer
// so that two tracers alive at once never adopt each other's spans.
thread_local std::vector<std::pair<const Tracer*, int>> t_open;
}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = static_cast<double>(p.end_ns - p.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    t.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    t.self_s += self[i];
    t.count += 1;
  }
  return out;
}

SpanTotals totals_of(const std::map<std::string, SpanTotals>& totals,
                     const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(const char* name) {
  int parent = -1;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == this) {
      parent = it->second;
      break;
    }
  const std::int64_t t = now_ns();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, t, t, parent});
  }
  t_open.emplace_back(this, id);
  return id;
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns();
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == this && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [", f);
  for (std::size_t i = 0; i < all.size(); ++i)
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d}",
                 i == 0 ? "" : ",", all[i].name,
                 static_cast<long long>(all[i].start_ns),
                 static_cast<long long>(all[i].end_ns), all[i].parent);
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
