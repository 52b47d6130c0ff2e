#include "net/traffic_meter.hpp"

#include "util/text_table.hpp"
#include "util/units.hpp"

namespace cloudsync {

const char* to_string(traffic_category c) {
  switch (c) {
    case traffic_category::payload: return "payload";
    case traffic_category::metadata: return "metadata";
    case traffic_category::transport: return "transport";
    case traffic_category::notification: return "notification";
    case traffic_category::retry: return "retry";
    case traffic_category::resume: return "resume";
    case traffic_category::redundancy: return "redundancy";
    case traffic_category::rehydrate: return "rehydrate";
    case traffic_category::kCount: break;
  }
  return "?";
}

void traffic_meter::record(direction dir, traffic_category cat,
                           std::uint64_t bytes) {
  counters_[idx(dir, cat)] += bytes;
}

std::uint64_t traffic_meter::total() const {
  std::uint64_t t = 0;
  for (const auto c : counters_) t += c;
  return t;
}

std::uint64_t traffic_meter::total(direction dir) const {
  std::uint64_t t = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(traffic_category::kCount);
       ++c) {
    t += counters_[idx(dir, static_cast<traffic_category>(c))];
  }
  return t;
}

std::uint64_t traffic_meter::by_category(traffic_category cat) const {
  return counters_[idx(direction::up, cat)] +
         counters_[idx(direction::down, cat)];
}

std::uint64_t traffic_meter::get(direction dir, traffic_category cat) const {
  return counters_[idx(dir, cat)];
}

std::uint64_t traffic_meter::overhead() const {
  return total() - by_category(traffic_category::payload);
}

void traffic_meter::reset() { counters_.fill(0); }

void traffic_meter::add(const traffic_meter& other) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

traffic_meter::snapshot traffic_meter::snap() const { return {counters_}; }

traffic_meter traffic_meter::since(const snapshot& snap) const {
  traffic_meter delta;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    // A reset() after the snapshot leaves counters below their snapshot
    // values; clamp instead of letting the unsigned subtraction wrap.
    if (counters_[i] > snap.counters[i]) {
      delta.counters_[i] = counters_[i] - snap.counters[i];
    }
  }
  return delta;
}

std::string traffic_meter::summary() const {
  text_table table;
  table.header({"category", "up", "down", "total"});
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(traffic_category::kCount); ++c) {
    const auto cat = static_cast<traffic_category>(c);
    table.row({to_string(cat),
               format_bytes(static_cast<double>(get(direction::up, cat))),
               format_bytes(static_cast<double>(get(direction::down, cat))),
               format_bytes(static_cast<double>(by_category(cat)))});
  }
  table.row({"TOTAL", format_bytes(static_cast<double>(total(direction::up))),
             format_bytes(static_cast<double>(total(direction::down))),
             format_bytes(static_cast<double>(total()))});
  return table.str();
}

}  // namespace cloudsync
