#include "trace.hpp"

#include <time.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace pb::trace {
namespace {

constexpr std::size_t kRawCapPerThread = 50000;

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Raw {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::int64_t parent;  // index in the same thread's raw list, or -1
};

struct Open {
  const char* name;
  std::int64_t start;
  std::int64_t child_ns;
  std::int64_t raw_index;  // -1 when past the raw cap
};

struct Buffer {
  std::vector<Open> stack;
  std::vector<Raw> raw;
  std::map<const char*, Stat> stats;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    std::lock_guard lock(g_mutex);
    g_buffers.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!enabled()) return;
  active_ = true;
  Buffer& b = local();
  std::int64_t raw_index = -1;
  if (b.raw.size() < kRawCapPerThread) {
    const std::int64_t parent = b.stack.empty() ? -1 : b.stack.back().raw_index;
    raw_index = static_cast<std::int64_t>(b.raw.size());
    b.raw.push_back(Raw{name, 0, 0, parent});
  }
  b.stack.push_back(Open{name, now_ns(), 0, raw_index});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  Buffer& b = local();
  const Open open = b.stack.back();
  b.stack.pop_back();
  const std::int64_t duration = end - open.start;
  if (!b.stack.empty()) b.stack.back().child_ns += duration;
  if (open.raw_index >= 0) {
    Raw& raw = b.raw[static_cast<std::size_t>(open.raw_index)];
    raw.start = open.start;
    raw.end = end;
  }
  Stat& stat = b.stats[open.name];
  ++stat.count;
  stat.total_s += static_cast<double>(duration) * 1e-9;
  stat.self_s += static_cast<double>(duration - open.child_ns) * 1e-9;
  stat.duration.record_ns(static_cast<std::uint64_t>(duration));
}

std::map<std::string, Stat> collect() {
  std::map<std::string, Stat> out;
  std::lock_guard lock(g_mutex);
  for (const auto& b : g_buffers) {
    for (const auto& [name, stat] : b->stats) {
      Stat& into = out[name];
      into.count += stat.count;
      into.total_s += stat.total_s;
      into.self_s += stat.self_s;
      into.duration.merge(stat.duration);
    }
  }
  return out;
}

std::size_t write_csv(const std::string& path) {
  std::ofstream out(path);
  out << "thread,index,name,start_ns,end_ns,parent\n";
  std::size_t written = 0;
  std::lock_guard lock(g_mutex);
  for (std::size_t t = 0; t < g_buffers.size(); ++t) {
    const auto& raw = g_buffers[t]->raw;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].end == 0) continue;  // still open
      out << t << ',' << i << ',' << raw[i].name << ',' << raw[i].start << ','
          << raw[i].end << ',' << raw[i].parent << '\n';
      ++written;
    }
  }
  return written;
}

}  // namespace pb::trace
