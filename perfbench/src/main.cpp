// perfbench: runs one workload and prints its measurements.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --rate-low R --rate-high R [--run-dir DIR]
//   perfbench serve-wire|serve-topo --seed N --run-dir DIR --trace 0|1   (SUT)
//
// `run` prints, as its last stdout line, one JSON object: the correctness
// verdict, attempted/failed counts, every measured value by name, the
// emission digest of deterministic workloads and the traced run's
// per-span self times. perfbench/run.py turns it into the benchmark's
// result line.
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace {

/// Why this build may not be measured, or "" when it may: assertions on
/// (a Debug build) or any instrumentation skews every timing.
std::string refusal() {
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifdef PB_INSTRUMENTED
  return "instrumented build (sanitizer or coverage flags)";
#endif
  return "";
}

std::map<std::string, std::string> parse(int argc, char** argv, int from) {
  std::map<std::string, std::string> out;
  for (int i = from; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    out[key] = argv[i + 1];
  }
  return out;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += pb::json_string(k) + ": " + pb::json_number(v);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench run|serve-wire|serve-topo ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  // Sleeps in the generator and in the SUT host loops wake within 1 us of
  // their deadline instead of the default 50 us slack; threads inherit it.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  auto opts = parse(argc, argv, 2);
  const std::string run_dir = opts.count("run-dir") ? opts["run-dir"] : ".bench_build/run";
  ::mkdir(run_dir.c_str(), 0755);
  const std::uint64_t seed = std::strtoull(opts["seed"].c_str(), nullptr, 10);
  if (mode == "serve-wire") return pb::serve_wire(seed, run_dir, opts["trace"] == "1");
  if (mode == "serve-topo") return pb::serve_topology(seed, run_dir);
  if (mode == "build-info") {
    std::printf("{\"build_type\": %s, \"compiler\": %s, \"refusal\": %s}\n",
                pb::json_string(PB_BUILD_TYPE).c_str(), pb::json_string(__VERSION__).c_str(),
                pb::json_string(refusal()).c_str());
    return 0;
  }
  if (mode != "run") {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  }
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 3;
  }

  pb::RunArgs args;
  args.workload = opts["workload"];
  args.seed = seed;
  args.seconds = std::atof(opts["seconds"].c_str());
  args.trace = opts["trace"] == "1";
  args.rate_low = std::atof(opts["rate-low"].c_str());
  args.rate_high = std::atof(opts["rate-high"].c_str());
  args.run_dir = run_dir;
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  args.self_exe = n > 0 ? std::string(exe, static_cast<std::size_t>(n)) : argv[0];
  if (args.seconds <= 0 || args.rate_low <= 0 || args.rate_high <= 0) {
    std::fprintf(stderr, "perfbench: --seconds, --rate-low and --rate-high must be > 0\n");
    return 2;
  }

  pb::RunResult r;
  if (args.workload == "wire_steady") {
    r = pb::run_wire(args, false);
    // The topology_2shard workload was dropped as unsteady (see
    // perfbench/README.md). The traced run still measures its dist/ layer:
    // a 2-shard deployment under the same traffic.
    if (args.trace) r.absorb_layer(pb::run_wire(args, true), "dist.");
  } else if (args.workload == "straggler_backlog") {
    r = pb::run_straggler(args);
  } else if (args.workload == "offline_tournament") {
    r = pb::run_offline(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  r.settle();
  for (const std::string& p : r.problems) std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());
  if (args.trace) pb::trace::write_csv(run_dir + "/" + args.workload + ".spans.csv");

  std::string problems = "[";
  for (const std::string& p : r.problems) {
    if (problems.size() > 1) problems += ", ";
    problems += pb::json_string(p);
  }
  problems += "]";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"digest\": %s, "
              "\"problems\": %s, \"values\": %s, \"self_s\": %s}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), pb::json_string(r.digest).c_str(),
              problems.c_str(), json_map(r.values).c_str(), json_map(r.self_s).c_str());
  return 0;
}
