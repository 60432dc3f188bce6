#include "telemetry/metrics_registry.hpp"

#include <stdexcept>

namespace asyncgt::telemetry {

template <typename Metric>
Metric& metrics_registry::find_or_create(std::deque<Metric>& store,
                                         metric_kind kind,
                                         const std::string& name) {
  std::lock_guard lk(mu_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metrics_registry: '" + name +
                             "' already registered as a different kind");
    }
    return store[it->second.index];
  }
  store.emplace_back();
  by_name_[name] = {kind, store.size() - 1};
  return store.back();
}

counter& metrics_registry::get_counter(const std::string& name) {
  return find_or_create(counters_, metric_kind::counter, name);
}

gauge& metrics_registry::get_gauge(const std::string& name) {
  return find_or_create(gauges_, metric_kind::gauge, name);
}

histogram& metrics_registry::get_histogram(const std::string& name) {
  return find_or_create(histograms_, metric_kind::histogram, name);
}

metrics_snapshot metrics_registry::scrape() const {
  std::lock_guard lk(mu_);
  metrics_snapshot snap;
  snap.entries.reserve(by_name_.size());
  for (const auto& [name, s] : by_name_) {
    metrics_snapshot::entry e;
    e.name = name;
    e.kind = s.kind;
    switch (s.kind) {
      case metric_kind::counter:
        e.total = counters_[s.index].total();
        break;
      case metric_kind::gauge:
        e.value = gauges_[s.index].get();
        break;
      case metric_kind::histogram: {
        const histogram& h = histograms_[s.index];
        e.total = h.total();
        e.sum = h.sum();
        e.min = h.min();
        e.max = h.max();
        e.buckets = h.buckets();
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void metrics_registry::reset() {
  std::lock_guard lk(mu_);
  for (auto& c : counters_) c.reset();
  for (auto& g : gauges_) g.reset();
  for (auto& h : histograms_) h.reset();
}

}  // namespace asyncgt::telemetry
