// The four workloads. Each fills a name → value map with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run); main.cpp
// prints the ones BENCHMARK.json names, in its order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pb.hpp"

namespace pb {

/// Set-up repetitions of an untraced run; setup_s is their median.
inline constexpr int kSetups = 3;

struct RunArgs {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Fixed offered rates of the `low` and `high` phases, messages/s.
  double rate_low{0.0};
  double rate_high{0.0};
  /// Scratch directory (sockets, release logs, span dumps).
  std::string run_dir;
  /// This executable, re-spawned as the system-under-test process.
  std::string self_exe;
};

struct RunResult {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, double> values;
  /// Why the run failed its correctness gate (empty when it passed).
  std::vector<std::string> problems;
  /// Emission digest of a deterministic workload ("" otherwise).
  std::string digest;
  /// Per-span self times of the traced run.
  std::map<std::string, double> self_s;

  /// A failed check that puts the whole run's output in doubt (a rank
  /// gap, a broken connection, a wire or merge error): settle() then
  /// counts every attempted message as failed.
  void fail(const std::string& why) {
    correct = false;
    whole_run_failed = true;
    problems.push_back(why);
  }
  /// A failed check that names the `count` messages it affects.
  void fail_messages(const std::string& why, std::uint64_t count) {
    correct = false;
    failed += count;
    problems.push_back(why);
  }
  /// Folds in the run of a second deployment that a workload measures by
  /// layer only: its checks and counts, its spans' self times, and its
  /// values whose names start with `prefix`.
  void absorb_layer(RunResult other, const std::string& prefix) {
    other.settle();
    correct = correct && other.correct;
    attempted += other.attempted;
    failed += other.failed;
    problems.insert(problems.end(), other.problems.begin(), other.problems.end());
    for (const auto& [name, value] : other.values) {
      if (name.rfind(prefix, 0) == 0) values[name] = value;
    }
    self_s.insert(other.self_s.begin(), other.self_s.end());
  }
  /// Final accounting, after every check ran: fixes `failed` and derives
  /// delivered_share (1 - failed / attempted) from it.
  void settle() {
    if (!correct) attempted = std::max<std::uint64_t>(attempted, 1);
    if (whole_run_failed) failed = attempted;
    failed = std::min(failed, attempted);
    values["delivered_share"] =
        attempted == 0 ? 1.0 : 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  }

 private:
  bool whole_run_failed{false};
};

RunResult run_wire(const RunArgs& args, bool topology);
RunResult run_straggler(const RunArgs& args);
RunResult run_offline(const RunArgs& args);

/// System-under-test process entry points (spawned by run_wire).
int serve_wire(std::uint64_t seed, const std::string& run_dir, bool traced);
int serve_topology(std::uint64_t seed, const std::string& run_dir);

}  // namespace pb
