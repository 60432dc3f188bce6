#include "telemetry/trace_writer.hpp"

#include <fstream>
#include <stdexcept>

#include "telemetry/metrics_registry.hpp"

namespace asyncgt::telemetry {

trace_writer::trace_writer(std::string process_name)
    : process_name_(std::move(process_name)),
      origin_(std::chrono::steady_clock::now()) {}

trace_stream& trace_writer::stream(std::uint32_t tid, const std::string& name) {
  std::lock_guard lk(mu_);
  return stream_locked(tid, name);
}

trace_stream& trace_writer::stream_locked(std::uint32_t tid,
                                          const std::string& name) {
  for (auto& s : streams_) {
    if (s.tid_ == tid) return s;
  }
  streams_.push_back(trace_stream(
      this, tid, name.empty() ? "thread-" + std::to_string(tid) : name));
  return streams_.back();
}

void trace_writer::instant_global(std::string name) {
  const std::uint64_t ts = now_us();
  std::lock_guard lk(mu_);
  stream_locked(events_stream_tid, "events").instant(std::move(name), ts);
}

void trace_writer::set_flush_path(std::string path) {
  std::lock_guard lk(mu_);
  flush_path_ = std::move(path);
}

std::string trace_writer::flush_path() const {
  std::lock_guard lk(mu_);
  return flush_path_;
}

bool trace_writer::flush() const noexcept {
  std::string path = flush_path();
  if (path.empty()) return false;
  try {
    write_file(path);
    return true;
  } catch (...) {
    return false;
  }
}

std::size_t trace_writer::event_count() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& s : streams_) {
    std::lock_guard sk(*s.mu_);
    n += s.events_.size();
  }
  return n;
}

json_value trace_writer::to_json() const {
  std::lock_guard lk(mu_);
  json_value events = json_value::array();

  // Process/thread naming metadata so viewers label the tracks.
  json_value pmeta = json_value::object();
  pmeta.set("name", "process_name").set("ph", "M").set("pid", 1).set("tid", 0);
  pmeta.set("args", json_value::object().set("name", process_name_));
  events.push(std::move(pmeta));

  for (const auto& s : streams_) {
    json_value tmeta = json_value::object();
    tmeta.set("name", "thread_name").set("ph", "M").set("pid", 1);
    tmeta.set("tid", s.tid_);
    tmeta.set("args", json_value::object().set("name", s.name_));
    events.push(std::move(tmeta));
  }

  for (const auto& s : streams_) {
    // Live streams may be appending concurrently (flush-on-abort runs while
    // other jobs' gangs are still tracing): snapshot each one under its own
    // mutex so the walk never races a vector reallocation.
    std::lock_guard sk(*s.mu_);
    for (const auto& e : s.events_) {
      json_value ev = json_value::object();
      ev.set("name", e.name);
      ev.set("ph", std::string(1, e.phase));
      ev.set("pid", 1).set("tid", s.tid_);
      ev.set("ts", e.ts_us);
      if (e.phase == 'X') ev.set("dur", e.dur_us);
      if (e.phase == 'i') ev.set("s", "t");  // instant scope: thread
      if (e.has_value) {
        ev.set("args", json_value::object().set("value", e.value));
      } else if (!e.args.empty()) {
        json_value args = json_value::object();
        for (const auto& [k, v] : e.args) args.set(k, v);
        ev.set("args", std::move(args));
      }
      events.push(std::move(ev));
    }
  }

  json_value doc = json_value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

void trace_writer::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("trace_writer: cannot open '" + path +
                             "' for writing");
  }
  out << to_json().dump(1);
  out << '\n';
  if (!out) {
    throw std::runtime_error("trace_writer: write to '" + path + "' failed");
  }
}

phase_timer::phase_timer(trace_writer* writer, std::string name,
                         metrics_registry* registry)
    : writer_(writer), registry_(registry), name_(std::move(name)) {
  start_tp_ = std::chrono::steady_clock::now();
  if (writer_ != nullptr) start_us_ = writer_->us_since_origin(start_tp_);
}

phase_timer::~phase_timer() {
  const auto end_tp = std::chrono::steady_clock::now();
  if (writer_ != nullptr) {
    const std::uint64_t end_us = writer_->us_since_origin(end_tp);
    writer_->stream(phase_stream_tid, "phases")
        .complete(name_, start_us_, end_us - start_us_);
  }
  if (registry_ != nullptr) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        end_tp - start_tp_)
                        .count();
    registry_->get_counter("phase." + name_ + ".us")
        .add(static_cast<std::uint64_t>(us));
  }
}

}  // namespace asyncgt::telemetry
