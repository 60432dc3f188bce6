// In-memory span recorder for the traced pass.
//
// A span has a name, a start and end (steady-clock nanoseconds), a parent
// and a group id shared by every span of one query or batch. Spans come in
// two kinds:
//
//   interval  a real [start, end) the benchmark observed around a call
//             (query, submit, get, apply, snapshot, each repair);
//   lane sum  a duration summed over a job's lanes (lane busy time, the
//             adjacency calls, the pushes inside them), laid out from its
//             parent's start so the same coverage rule applies.
//
// Self time = span duration - the part of it covered by child spans of the
// same kind. Coverage is the union of the children clipped to the parent,
// so self time is never negative and overlapping children are not counted
// twice. Spans are kept in memory and written as one JSON file when the
// benchmark ends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace agtbench {

struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t group = 0;   ///< query / batch id
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool lane_sum = false;

  std::int64_t duration_ns() const noexcept {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// Length of the union of `children` clipped to [lo, hi).
inline std::int64_t covered_ns(std::int64_t lo, std::int64_t hi,
                               std::vector<std::pair<std::int64_t,
                                                     std::int64_t>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, lo);
    c.second = std::min(c.second, hi);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const auto& [b, e] : children) {
    if (e <= b) continue;
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

class span_log {
 public:
  /// Records a span and returns its id (ids start at 1).
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t group, std::int64_t start_ns,
                    std::int64_t end_ns, bool lane_sum = false) {
    std::lock_guard lk(mu_);
    span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.group = group;
    s.name = std::move(name);
    s.start_ns = start_ns;
    s.end_ns = std::max(start_ns, end_ns);
    s.lane_sum = lane_sum;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// A lane-sum span of `seconds`, laid out from its parent's start, after
  /// the lane-sum siblings already recorded under the same parent.
  std::uint64_t add_sum(std::string name, std::uint64_t parent,
                        std::uint64_t group, double seconds) {
    std::int64_t start = 0;
    {
      std::lock_guard lk(mu_);
      if (parent != 0) {
        start = spans_.at(parent - 1).start_ns;
        for (const span& s : spans_) {
          if (s.parent == parent && s.lane_sum) start += s.duration_ns();
        }
      }
    }
    const auto dur = static_cast<std::int64_t>(seconds * 1e9);
    return add(std::move(name), parent, group, start, start + dur, true);
  }

  /// Closes an interval span opened with a provisional end.
  void set_end(std::uint64_t id, std::int64_t end_ns) {
    std::lock_guard lk(mu_);
    span& s = spans_.at(id - 1);
    s.end_ns = std::max(s.start_ns, end_ns);
  }

  /// Fresh group id for one query or batch.
  std::uint64_t new_group() {
    std::lock_guard lk(mu_);
    return ++groups_;
  }

  /// Span duration minus the union of its same-kind children, seconds.
  double self_seconds(std::uint64_t id) const {
    std::lock_guard lk(mu_);
    const span& s = spans_.at(id - 1);
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const span& c : spans_) {
      if (c.parent == id && c.lane_sum == s.lane_sum) {
        kids.emplace_back(c.start_ns, c.end_ns);
      }
    }
    return static_cast<double>(s.duration_ns() -
                               covered_ns(s.start_ns, s.end_ns,
                                          std::move(kids))) *
           1e-9;
  }

  /// Writes every span as a JSON array; times relative to the first span.
  void write_json(const std::string& path) const {
    std::lock_guard lk(mu_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"group\":" << s.group << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns - origin
          << ",\"end_ns\":" << s.end_ns - origin
          << ",\"kind\":\"" << (s.lane_sum ? "lane_sum" : "interval")
          << "\"}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  mutable std::mutex mu_;
  std::vector<span> spans_;
  std::uint64_t groups_ = 0;
};

}  // namespace agtbench
