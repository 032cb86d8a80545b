// In-memory span recorder for the traced run. A span is (name, start,
// end, parent); spans nest per thread, and a span's self time is its
// duration minus the time its child spans cover. Spans are only opened by
// the benchmark's own code around calls into the library's public
// functions. Aggregates cover every span; raw spans are kept up to a cap
// and written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/latency_histogram.hpp"

namespace pb::trace {

/// Turns recording on or off (process-wide; off by default).
void enable(bool on);
[[nodiscard]] bool enabled();

/// RAII span; a no-op while recording is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_{false};
};

struct Stat {
  std::uint64_t count{0};
  double total_s{0.0};
  double self_s{0.0};
  tommy::LatencyHistogram duration;
};

/// Per-name aggregates over every thread that recorded. Call once the
/// recording threads have stopped.
[[nodiscard]] std::map<std::string, Stat> collect();

/// Writes the retained raw spans as CSV (thread,index,name,start_ns,
/// end_ns,parent). Returns the number written.
std::size_t write_csv(const std::string& path);

}  // namespace pb::trace
