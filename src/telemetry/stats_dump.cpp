#include "telemetry/stats_dump.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace asyncgt::telemetry {

std::vector<stats_dumper::delta_entry> stats_dumper::take_interval() {
  std::vector<delta_entry> out;
  if (reg_ == nullptr) return out;
  // Scrape under mu_: the sampler thread and a foreground caller may share
  // one dumper, and two takes whose scrape/update sections interleave would
  // let the staler snapshot overwrite prev_ last — re-reporting increments
  // the other take already consumed. scrape() is itself thread-safe, so
  // holding mu_ across it merely serializes takes.
  std::lock_guard lk(mu_);
  const metrics_snapshot snap = reg_->scrape();
  for (const auto& e : snap.entries) {
    delta_entry d;
    d.name = e.name;
    d.kind = e.kind;
    if (e.kind == metric_kind::gauge) {
      d.value = e.value;
      auto it = prev_gauge_.find(e.name);
      d.changed = it == prev_gauge_.end() || it->second != e.value;
      prev_gauge_[e.name] = e.value;
    } else {
      d.total = e.total;
      auto it = prev_.find(e.name);
      const std::uint64_t prev = it != prev_.end() ? it->second : 0;
      d.delta = clamp_delta(e.total, prev);
      d.changed = d.delta != 0;
      prev_[e.name] = e.total;
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::string stats_dumper::render() {
  std::vector<delta_entry> deltas = take_interval();
  // Only what moved this interval: counters/histograms with a nonzero
  // delta, gauges whose reading changed — so idle ticks print nothing.
  deltas.erase(std::remove_if(deltas.begin(), deltas.end(),
                              [](const delta_entry& d) { return !d.changed; }),
               deltas.end());
  if (deltas.empty()) return {};

  std::size_t width = 0;
  for (const auto& d : deltas) width = std::max(width, d.name.size());

  std::ostringstream os;
  for (const auto& d : deltas) {
    os << "  " << std::left << std::setw(static_cast<int>(width)) << d.name
       << std::right;
    if (d.kind == metric_kind::gauge) {
      os << "  = " << d.value;
    } else {
      os << "  +" << d.delta << "  (total " << d.total;
      if (d.kind == metric_kind::histogram) os << " samples";
      os << ")";
    }
    os << '\n';
  }
  return os.str();
}

void stats_dumper::dump(std::ostream& out, double t_seconds) {
  const std::string body = render();
  if (body.empty()) return;
  {
    std::lock_guard lk(mu_);
    ++dumps_;
  }
  std::ostringstream header;
  header << "-- stats @" << std::fixed << std::setprecision(2) << t_seconds
         << "s --\n";
  out << header.str() << body;
  out.flush();
}

}  // namespace asyncgt::telemetry
