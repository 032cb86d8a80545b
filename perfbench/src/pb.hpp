// Shared machinery of the benchmark: clocks, exact percentiles, the
// exactly-once release ledger (the correctness gate), rank-stream checks,
// emission digests, the RAS join against ground truth, /proc readers and
// a minimal JSON writer. Everything here is benchmark-side; the system
// under test is only reached through the library's public headers.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// CLOCK_MONOTONIC in seconds — the clock the generator, the server
/// arrival stamps and every release timestamp share.
[[nodiscard]] double now_s();

/// Sleeps until CLOCK_MONOTONIC reaches `t` (absolute seconds).
void sleep_until(double t);

/// CPU time of the calling thread, in seconds. On a shared host, time the
/// host takes the CPU away (preemption, steal) is not the program's; it
/// moved wall-clock figures by 25% or more between runs of the same code,
/// and the CPU clocks leave it out.
[[nodiscard]] double thread_cpu_now();
/// CPU time of the whole process (all threads), in seconds.
[[nodiscard]] double process_cpu_now();

/// Exact percentiles over a sample set (nearest rank on sorted values).
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, q in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double q);
  [[nodiscard]] double median() { return percentile(50.0); }

 private:
  std::vector<double> values_;
  bool sorted_{true};
};

/// Message ids the generator hands out: client in the top 24 bits, a
/// per-client dense sequence number below.
inline constexpr unsigned kSeqBits = 40;
[[nodiscard]] inline std::uint64_t make_id(std::uint32_t client,
                                           std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << kSeqBits) | seq;
}
[[nodiscard]] inline std::uint32_t id_client(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> kSeqBits);
}
[[nodiscard]] inline std::uint64_t id_seq(std::uint64_t id) {
  return id & ((std::uint64_t{1} << kSeqBits) - 1);
}

/// What the correctness gate found.
struct Verdict {
  std::uint64_t submitted{0};
  std::uint64_t released{0};
  std::uint64_t missing{0};
  std::uint64_t duplicates{0};
  std::uint64_t unknown{0};
  [[nodiscard]] std::uint64_t failures() const {
    return missing + duplicates + unknown;
  }
};

/// Exactly-once accounting: every submitted id must be released once.
/// Per-client storage, so one thread per client may submit/release its
/// own ids concurrently with other clients' threads.
class Ledger {
 public:
  /// Ids are (client, seq_base + k) for a client's k-th message.
  explicit Ledger(std::uint32_t clients, std::uint64_t seq_base = 0)
      : per_client_(clients), seq_base_(seq_base) {}

  /// Registers a new message of `client` due at `due` (seconds); returns
  /// its id.
  std::uint64_t submit(std::uint32_t client, double due);

  /// Marks `id` released at `t` with `rank`. False (and counted) when the
  /// id was never submitted or was already released.
  bool release(std::uint64_t id, double t, std::uint64_t rank);

  [[nodiscard]] Verdict verdict() const;

  /// Release − due, for messages due in [from, to) that were released.
  [[nodiscard]] Samples latencies(double from, double to) const;
  /// Messages released in [from, to).
  [[nodiscard]] std::uint64_t released_between(double from,
                                               double to) const;

  /// Normalised rank agreement (metrics::rank_agreement) of the released
  /// ranks against the due times as ground truth.
  [[nodiscard]] double ras() const;


 private:
  struct PerClient {
    std::vector<double> due;
    std::vector<double> release_at;  // NaN until released
    std::vector<std::uint64_t> rank;
    std::uint64_t released{0};
    std::uint64_t duplicates{0};
    std::uint64_t unknown{0};
  };
  std::vector<PerClient> per_client_;
  std::uint64_t seq_base_{0};
  std::uint64_t unknown_client_{0};
};

/// A sample of the host's steal time and the SUT's CPU time, taken at a
/// window boundary of a wire run's measured phases.
struct HostMark {
  double t;  // the boundary's nominal time
  double steal_s;
  double sut_cpu_s;
};

/// The interval between two consecutive marks.
struct Window {
  double from;
  double to;
  double sut_cpu_s;  // SUT CPU time spent in it
};

/// The third of the windows in [from, to) that lost the least time to
/// host steal, per second, with ties in time order. The host shares its
/// CPUs with other tenants, and in a spell of steal a vCPU that holds the
/// generator, a poller or the pump stalls every message behind it: in
/// windows that lost 0.6 vCPU or more to steal, the same code read a p50
/// latency of 1–4 ms instead of 0.5 ms. Figures taken over the quietest
/// windows still see every change of the program, which runs in every
/// window.
[[nodiscard]] std::vector<Window> quiet_windows(const std::vector<HostMark>& marks,
                                                double from, double to);

/// Ranks must be dense and increasing within one emission stream.
struct RankStream {
  std::uint64_t next{0};
  std::uint64_t errors{0};
  void on_rank(std::uint64_t rank) {
    if (rank != next) ++errors;
    next = rank + 1;
  }
};

/// FNV-1a over 64-bit words: the emission digest.
struct Digest {
  std::uint64_t h{1469598103934665603ULL};
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

/// Open-loop schedule lateness: how far behind its due time the
/// generator handed each message over.
class Lateness {
 public:
  void on_sent(double due, double sent) { lag_.add(sent > due ? sent - due : 0.0); }
  [[nodiscard]] double p99_ms() { return lag_.percentile(99.0) * 1e3; }
  [[nodiscard]] std::size_t count() const { return lag_.count(); }
  void append(const Lateness& other) { lag_.append(other.lag_); }

 private:
  Samples lag_;
};

// ── /proc readers ────────────────────────────────────────────────────────
/// utime + stime of a whole process (all threads, live and exited).
[[nodiscard]] double process_cpu_s(pid_t pid);
/// utime + stime of one thread.
[[nodiscard]] double thread_cpu_s(pid_t pid, pid_t tid);
/// Thread ids of a process.
[[nodiscard]] std::vector<pid_t> thread_ids(pid_t pid);
/// VmHWM of a process, in MB.
[[nodiscard]] double rss_peak_mb(pid_t pid);
/// Host steal time so far, summed over every CPU, in seconds: the time
/// the VM's vCPUs wanted to run while the host ran something else (the
/// `steal` column of /proc/stat).
[[nodiscard]] double steal_s();

// ── output ───────────────────────────────────────────────────────────────
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace pb
