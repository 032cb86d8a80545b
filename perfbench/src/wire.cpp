// wire_steady: a load generator process driving a system-under-test
// (SUT) process over Unix-domain sockets. The SUT is either the wire
// server, or, in wire_steady's traced run only, a 2-shard topology whose
// dist/ layer it traces (the topology_2shard workload of its own was
// dropped as unsteady: see perfbench/README.md).
//
//   generator (1 thread, 4 sockets)                  SUT process
//   ─ open-loop Poisson at `low`, then `high`,  ──►  wire_steady: StreamAcceptor
//     then saturating; heartbeats on a fixed         + FrameFrontend (event loop)
//     cadence; stamps = due − θ, θ ~ the client's     + 1-shard FairOrderingService
//     announced Gaussian                              traced 2-shard run: 2 ShardNodes
//   ◄─ BatchEmission broadcast (wire_steady), or      + 1 MergeNode
//      the merge tier's release log (topology)
//
// "Saturating" keeps kSatWindow messages in flight (sent, not yet
// released): the release path, not the generator, sets the pace, and the
// backlog left to drain stays bounded. The generator and the SUT share
// CLOCK_MONOTONIC: the server stamps arrivals with it, and every message
// is timed from its due time to its release. The SUT is this same
// executable, re-spawned with a serve-* subcommand; it is controlled over
// its stdin and reports over its stdout.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "dist/merge_node.hpp"
#include "dist/shard_node.hpp"
#include "net/acceptor.hpp"
#include "net/frontend.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace pb {
namespace {

using namespace tommy;

constexpr std::uint32_t kClients = 4;
constexpr double kHeartbeatPeriod = 200e-6;  // per client
constexpr double kPumpPeriod = 100e-6;       // SUT drain cadence
constexpr std::size_t kSatBacklogBytes = 64 * 1024;
// Saturating phases keep at most this many messages in flight (sent, not
// yet released) across all clients: the release path limits the
// generator, and the backlog left to drain stays bounded.
constexpr std::uint64_t kSatWindow = 1024;
constexpr double kDrainTimeout = 15.0;

// ── population ──────────────────────────────────────────────────────────
struct WireClient {
  double mu;
  double sigma;
};

/// Four Gaussian clients with σ = 10, 23.3, 36.7 and 50 µs (in client
/// order, so the 2-shard deployment's shards always see the same uncertainty)
/// and μ ~ U(−20, 20) µs from the seed. Every seed sees the same spread of
/// uncertainty, so latency does not swing with the draw.
std::vector<WireClient> wire_population(std::uint64_t seed) {
  Rng rng(seed ^ 0x5752ULL);
  const double sigmas[kClients] = {10e-6, 23.3e-6, 36.7e-6, 50e-6};
  std::vector<WireClient> out;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    out.push_back({rng.uniform(-20e-6, 20e-6), sigmas[c]});
  }
  return out;
}

stats::DistributionSummary summary_of(const WireClient& c) {
  return stats::DistributionSummary(stats::GaussianParams{c.mu, c.sigma});
}

std::vector<ClientId> client_ids() {
  std::vector<ClientId> ids;
  for (std::uint32_t c = 0; c < kClients; ++c) ids.push_back(ClientId(c));
  return ids;
}

TimePoint monotonic_now(const net::WireMessage&) { return TimePoint(now_s()); }

std::string socket_path(const std::string& run_dir, const char* what,
                        std::uint32_t index) {
  return run_dir + "/" + std::to_string(::getpid()) + what +
         std::to_string(index) + ".sock";
}

// ── SUT side ────────────────────────────────────────────────────────────

/// Counters of the timing ByteStream decorator (all connections).
struct IoCounters {
  std::atomic<std::uint64_t> read_calls{0};
  std::atomic<std::uint64_t> read_ok{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> read_wouldblock{0};
  std::atomic<std::uint64_t> write_calls{0};
  std::atomic<std::uint64_t> write_partial{0};
};
IoCounters g_io;

/// Timing decorator around a ByteStream's nonblocking calls: a span per
/// try_read / try_write plus call, byte, would-block and partial-write
/// counts. Keeps the first bytes it reads so the codec can be replayed.
class TimingStream final : public net::ByteStream {
 public:
  explicit TimingStream(std::shared_ptr<net::ByteStream> inner)
      : inner_(std::move(inner)) {}

  std::optional<std::size_t> read_some(std::span<std::uint8_t> out) override {
    return inner_->read_some(out);
  }
  bool write_all(std::span<const std::uint8_t> bytes) override {
    return inner_->write_all(bytes);
  }
  net::IoResult try_read(std::span<std::uint8_t> out) override {
    if (!trace::enabled()) return inner_->try_read(out);
    net::IoResult r;
    {
      trace::Span span("net.try_read");
      r = inner_->try_read(out);
    }
    g_io.read_calls.fetch_add(1, std::memory_order_relaxed);
    if (r.status == net::IoStatus::kOk) {
      g_io.read_ok.fetch_add(1, std::memory_order_relaxed);
      g_io.read_bytes.fetch_add(r.bytes, std::memory_order_relaxed);
      if (captured_.size() < kCaptureBytes) {
        captured_.insert(captured_.end(), out.data(), out.data() + r.bytes);
      }
    } else if (r.status == net::IoStatus::kWouldBlock) {
      g_io.read_wouldblock.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  }
  net::IoResult try_write(std::span<const std::uint8_t> bytes) override {
    if (!trace::enabled()) return inner_->try_write(bytes);
    net::IoResult r;
    {
      trace::Span span("net.try_write");
      r = inner_->try_write(bytes);
    }
    g_io.write_calls.fetch_add(1, std::memory_order_relaxed);
    if (r.status == net::IoStatus::kOk && r.bytes < bytes.size()) {
      g_io.write_partial.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  }
  int poll_fd() const override { return inner_->poll_fd(); }
  void close_write() override { inner_->close_write(); }
  void shutdown() override { inner_->shutdown(); }

  /// Inbound bytes captured so far (read only after the poller stopped).
  [[nodiscard]] const std::vector<std::uint8_t>& captured() const {
    return captured_;
  }

 private:
  static constexpr std::size_t kCaptureBytes = 2 << 20;
  std::shared_ptr<net::ByteStream> inner_;
  std::vector<std::uint8_t> captured_;
};

/// Replays captured inbound bytes through FrameDecoder + net::decode, then
/// re-encodes every decoded message; returns (decode, encode) ns/frame.
std::pair<double, double> replay_codec(const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return {0.0, 0.0};
  std::vector<net::WireMessage> messages;
  double decode_s = 0.0;
  double encode_s = 0.0;
  std::size_t frames = 0;
  for (int rep = 0; rep < 5; ++rep) {
    messages.clear();
    const double t0 = now_s();
    net::FrameDecoder decoder;
    decoder.append(bytes);
    while (auto payload = decoder.next()) {
      if (auto m = net::decode(*payload)) messages.push_back(std::move(*m));
    }
    const double t1 = now_s();
    std::size_t sink = 0;
    for (const net::WireMessage& m : messages) sink += net::encode_frame(m).size();
    const double t2 = now_s();
    if (sink == 0) return {0.0, 0.0};
    decode_s += t1 - t0;
    encode_s += t2 - t1;
    frames += messages.size();
  }
  if (frames == 0) return {0.0, 0.0};
  return {decode_s * 1e9 / static_cast<double>(frames),
          encode_s * 1e9 / static_cast<double>(frames)};
}

/// The SUT's side of the control channel: commands arrive on stdin.
/// wait() doubles as the drain-loop sleep.
class Control {
 public:
  /// Waits up to `seconds` for a command line; returns it or "".
  std::string wait(double seconds) {
    if (auto line = pop()) return *line;
    pollfd p{STDIN_FILENO, POLLIN, 0};
    timespec ts{0, static_cast<long>(seconds * 1e9)};
    if (ppoll(&p, 1, &ts, nullptr) > 0) {
      char buf[256];
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (n <= 0) return "STOP";  // generator gone: shut down
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    return pop().value_or("");
  }

 private:
  std::optional<std::string> pop() {
    const auto nl = pending_.find('\n');
    if (nl == std::string::npos) return std::nullopt;
    std::string line = pending_.substr(0, nl);
    pending_.erase(0, nl + 1);
    return line;
  }
  std::string pending_;
};

void say(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

void stat_line(const std::string& key, double value) {
  say("STAT " + key + " " + json_number(value));
}

/// Applies a TRACE on/off command; true when `cmd` was one.
bool apply_trace_command(const std::string& cmd) {
  if (cmd == "TRACE 1") trace::enable(true);
  if (cmd == "TRACE 0") trace::enable(false);
  return cmd.rfind("TRACE", 0) == 0;
}

/// Reports span aggregates as STAT lines and writes the raw spans out.
void report_spans(const std::string& run_dir, const char* host) {
  trace::write_csv(run_dir + "/" + host + ".spans.csv");
  for (const auto& [name, stat] : trace::collect()) {
    stat_line("span." + name + ".count", static_cast<double>(stat.count));
    stat_line("span." + name + ".total_s", stat.total_s);
    stat_line("span." + name + ".self_s", stat.self_s);
    stat_line("span." + name + ".p50_ns",
              static_cast<double>(stat.duration.percentile_ns(0.5)));
    stat_line("span." + name + ".p99_ns",
              static_cast<double>(stat.duration.percentile_ns(0.99)));
  }
}

}  // namespace

int serve_wire(std::uint64_t seed, const std::string& run_dir, bool traced) {
  const auto population = wire_population(seed);
  core::ClientRegistry registry;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    registry.announce(ClientId(c), summary_of(population[c]));
  }
  const double prime_t0 = now_s();
  core::FairOrderingService service(registry, client_ids());
  const double prime_s = now_s() - prime_t0;

  net::FrontendConfig config;
  config.arrival_clock = monotonic_now;
  config.transport = net::TransportMode::kEventLoop;
  config.poller_threads = 1;
  config.eof_policy = net::EofPolicy::kRemove;
  net::FrameFrontend frontend(registry, service, config);

  std::mutex streams_mutex;
  std::vector<std::shared_ptr<TimingStream>> streams;
  // Untraced runs adopt the accepted streams as they are.
  net::StreamAcceptor acceptor([&](std::shared_ptr<net::ByteStream> s) {
    if (!traced) {
      frontend.add_connection(std::move(s));
      return;
    }
    auto timed = std::make_shared<TimingStream>(std::move(s));
    {
      std::lock_guard lock(streams_mutex);
      streams.push_back(timed);
    }
    frontend.add_connection(timed);
  });
  const std::string path = socket_path(run_dir, "-wire", 0);
  if (!acceptor.listen_unix(path)) {
    say("FAILED listen");
    return 1;
  }
  // Threads alive before the first connection: the event loop's pollers
  // are the ones that appear after it.
  const auto tids_before = thread_ids(::getpid());
  const double setup_cpu_s = process_cpu_now();
  say("READY " + path + " " + json_number(prime_s));

  Control control;
  std::uint64_t pumps = 0;
  std::uint64_t empty = 0;
  std::uint64_t gate_blocked = 0;
  for (;;) {
    const std::string cmd = control.wait(kPumpPeriod);
    if (cmd == "STOP") break;
    apply_trace_command(cmd);
    const double now = now_s();
    net::PumpOptions options;
    TimePoint next_safe = TimePoint::infinite_future();
    options.next_safe_after = &next_safe;
    std::size_t emitted = 0;
    {
      trace::Span span("net.pump");
      emitted = frontend.pump(TimePoint(now), options);
    }
    ++pumps;
    if (emitted == 0) {
      ++empty;
      if (next_safe.is_finite() && next_safe.seconds() <= now) ++gate_blocked;
    }
  }
  trace::enable(false);

  std::uint64_t wire_errors = 0;
  for (std::uint64_t id = 0; id < 16; ++id) {
    if (frontend.has_connection(id) &&
        frontend.connection_error(id) != net::WireError::kNone) {
      ++wire_errors;
    }
  }
  const std::size_t live = frontend.connection_count();
  double poller_cpu = 0.0;
  for (pid_t tid : thread_ids(::getpid())) {
    if (std::find(tids_before.begin(), tids_before.end(), tid) ==
        tids_before.end()) {
      poller_cpu += thread_cpu_s(::getpid(), tid);
    }
  }
  acceptor.stop();
  const net::FrontendTotals totals = frontend.totals();
  frontend.stop();

  stat_line("prime_s", prime_s);
  stat_line("setup_cpu_s", setup_cpu_s);
  stat_line("live_connections", static_cast<double>(live));
  stat_line("wire_errors", static_cast<double>(wire_errors));
  stat_line("violations", static_cast<double>(service.fairness_violations()));
  stat_line("pending", static_cast<double>(service.pending_count()));
  stat_line("frames_dropped", static_cast<double>(totals.frames_dropped));
  stat_line("bytes_in", static_cast<double>(totals.bytes_in));
  stat_line("bytes_out", static_cast<double>(totals.bytes_out));
  stat_line("submits_in", static_cast<double>(totals.submits_in));
  stat_line("frames_out", static_cast<double>(totals.frames_out));
  stat_line("pump_calls", static_cast<double>(pumps));
  stat_line("pump_empty", static_cast<double>(empty));
  stat_line("pump_gate_blocked", static_cast<double>(gate_blocked));
  stat_line("poller_cpu_s", poller_cpu);
  stat_line("io.read_calls", static_cast<double>(g_io.read_calls.load()));
  stat_line("io.read_ok", static_cast<double>(g_io.read_ok.load()));
  stat_line("io.read_bytes", static_cast<double>(g_io.read_bytes.load()));
  stat_line("io.read_wouldblock", static_cast<double>(g_io.read_wouldblock.load()));
  stat_line("io.write_calls", static_cast<double>(g_io.write_calls.load()));
  stat_line("io.write_partial", static_cast<double>(g_io.write_partial.load()));
  {
    std::lock_guard lock(streams_mutex);
    std::size_t best = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (streams[i]->captured().size() > streams[best]->captured().size()) best = i;
    }
    const auto [decode_ns, encode_ns] =
        streams.empty() ? std::pair{0.0, 0.0} : replay_codec(streams[best]->captured());
    stat_line("decode_ns_per_frame", decode_ns);
    stat_line("encode_ns_per_frame", encode_ns);
  }
  report_spans(run_dir, "wire_server");
  stat_line("rss_peak_mb", rss_peak_mb(::getpid()));
  say("END");
  return 0;
}

int serve_topology(std::uint64_t seed, const std::string& run_dir) {
  const auto population = wire_population(seed);
  constexpr std::uint32_t kNodes = 2;
  std::vector<core::ClientRegistry> registries(kNodes);
  for (auto& registry : registries) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      registry.announce(ClientId(c), summary_of(population[c]));
    }
  }
  const double prime_t0 = now_s();
  std::vector<std::unique_ptr<dist::ShardNode>> nodes;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    dist::ShardNodeConfig config;
    config.node = n;
    config.frontend.arrival_clock = monotonic_now;
    config.frontend.transport = net::TransportMode::kEventLoop;
    config.frontend.poller_threads = 1;
    std::vector<ClientId> partition;
    for (std::uint32_t c = n * kClients / kNodes; c < (n + 1) * kClients / kNodes; ++c) {
      partition.push_back(ClientId(c));
    }
    nodes.push_back(std::make_unique<dist::ShardNode>(registries[n], partition, config));
  }
  const double prime_s = now_s() - prime_t0;
  std::string ready = "READY";
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    const std::string in = socket_path(run_dir, "-in", n);
    const std::string up = socket_path(run_dir, "-up", n);
    if (!nodes[n]->listen_ingest(net::Endpoint{.unix_path = in, .tcp_port = 0}) ||
        !nodes[n]->listen_uplink(net::Endpoint{.unix_path = up, .tcp_port = 0})) {
      say("FAILED listen");
      return 1;
    }
    ready += " " + in;
  }
  dist::MergeNode merge(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (!merge.connect(n, net::Endpoint{.unix_path = socket_path(run_dir, "-up", n),
                                        .tcp_port = 0})) {
      say("FAILED merge connect");
      return 1;
    }
  }

  // A downstream consumer on the merge downlink counts released messages
  // (the drain barrier); release times come from the release marks below.
  const std::string down_path = socket_path(run_dir, "-down", 0);
  if (!merge.listen_downlink_unix(down_path)) {
    say("FAILED downlink listen");
    return 1;
  }
  auto downlink = net::dial(net::Endpoint{.unix_path = down_path, .tcp_port = 0},
                            net::RetryPolicy{});
  if (downlink == nullptr) {
    say("FAILED downlink dial");
    return 1;
  }
  std::atomic<std::uint64_t> downlink_messages{0};
  std::thread consumer([&] {
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> buf(64 * 1024);
    while (auto n = downlink->read_some(buf)) {
      if (*n == 0) break;
      decoder.append(std::span<const std::uint8_t>(buf.data(), *n));
      while (auto payload = decoder.next()) {
        auto message = net::decode(*payload);
        if (!message) continue;
        if (const auto* b = std::get_if<net::OrderedBatch>(&*message)) {
          downlink_messages.fetch_add(b->messages.size(), std::memory_order_release);
        }
      }
    }
  });
  std::atomic<bool> stop{false};
  // Merge release: records when each released record left the tier.
  struct ReleaseMark {
    double t;
    std::size_t count;
  };
  std::vector<ReleaseMark> marks;
  Samples held;
  Samples gate_lag;
  std::uint64_t release_calls = 0;
  std::uint64_t release_empty = 0;
  auto release_once = [&] {
    const bool traced = trace::enabled();
    if (traced) {
      held.add(static_cast<double>(merge.held_count()));
      const TimePoint gate = merge.gate();
      if (gate.is_finite()) gate_lag.add(now_s() - gate.seconds());
    }
    std::size_t n = 0;
    {
      trace::Span span("dist.merge_release");
      n = merge.release();
    }
    if (n > 0) marks.push_back({now_s(), n});
    if (traced) {
      ++release_calls;
      release_empty += n == 0 ? 1 : 0;
    }
  };
  auto pump_node = [&](std::uint32_t n) {
    trace::Span span("dist.shard_pump");
    nodes[n]->pump(TimePoint(now_s()));
  };
  // One host thread pumps both shard nodes (with a span around each
  // pump, as ShardNode::start_pump would) and releases the merge tier
  // twice as often.
  std::thread loop([&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      if (i % 2 == 0) {
        for (std::uint32_t n = 0; n < kNodes; ++n) pump_node(n);
      }
      release_once();
      sleep_until(now_s() + kPumpPeriod / 2);
    }
  });
  const double setup_cpu_s = process_cpu_now();
  say(ready + " " + json_number(prime_s));
  auto released_messages = [&] { return downlink_messages.load(std::memory_order_acquire); };

  Control control;
  std::uint64_t drain_target = 0;
  std::uint64_t reported = 0;
  double drain_deadline = 0.0;
  for (;;) {
    const std::string cmd = control.wait(1e-3);
    if (cmd == "STOP") break;
    if (apply_trace_command(cmd)) continue;
    if (cmd.rfind("DRAIN ", 0) == 0) {
      drain_target = std::stoull(cmd.substr(6));
      drain_deadline = now_s() + kDrainTimeout;
    }
    const std::uint64_t released_now = released_messages();
    if (released_now != reported) {
      say("REL " + std::to_string(released_now));
      reported = released_now;
    }
    if (drain_target > 0) {
      const std::uint64_t have = released_now;
      if (have >= drain_target || now_s() > drain_deadline) {
        say("DRAINED " + std::to_string(have));
        drain_target = 0;
      }
    }
  }
  trace::enable(false);
  stop.store(true);
  loop.join();
  downlink->shutdown();
  consumer.join();
  // Peak RSS before the release log is copied out for the report.
  const double rss_mb = rss_peak_mb(::getpid());

  // Release log: one row per released message, in release order.
  const auto released = merge.released();
  std::vector<double> batch_time(released.size(), 0.0);
  {
    std::size_t i = 0;
    for (const ReleaseMark& m : marks) {
      for (std::size_t k = 0; k < m.count && i < batch_time.size(); ++k) batch_time[i++] = m.t;
    }
  }
  // Every uplink batch is released exactly once: each node's released
  // ranks are dense from 0. (Release order is (safe_time, node, rank), so
  // a node's ranks need not be increasing in it.)
  std::vector<std::vector<std::uint64_t>> node_ranks(kNodes);
  Samples hold_ms;
  const std::string log_path = run_dir + "/" + std::to_string(::getpid()) + ".release";
  {
    std::ofstream out(log_path, std::ios::binary);
    for (std::size_t i = 0; i < released.size(); ++i) {
      const net::OrderedBatch& b = released[i];
      if (b.node < kNodes) node_ranks[b.node].push_back(b.rank);
      for (const auto& e : b.messages) {
        const std::uint64_t id = e.id.value();
        const double t = batch_time[i];
        const std::uint64_t pos = i;
        out.write(reinterpret_cast<const char*>(&id), sizeof(id));
        out.write(reinterpret_cast<const char*>(&t), sizeof(t));
        out.write(reinterpret_cast<const char*>(&pos), sizeof(pos));
        hold_ms.add((b.emitted_at - e.arrival).millis());
      }
    }
  }
  std::uint64_t rank_errors = 0;
  for (auto& ranks : node_ranks) {
    std::sort(ranks.begin(), ranks.end());
    RankStream stream;
    for (std::uint64_t r : ranks) stream.on_rank(r);
    rank_errors += stream.errors;
  }
  std::uint64_t merge_errors = 0;
  double announces = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    merge_errors += merge.peer(n).error != dist::MergeError::kNone ? 1 : 0;
    announces += static_cast<double>(nodes[n]->announces_published());
  }
  // Every pump publishes its batch frames plus one SafeTimeAnnounce, and
  // the node retains all of them (no retention cap here).
  double retained = 0;
  std::uint64_t violations = 0;
  for (auto& node : nodes) {
    retained += static_cast<double>(node->frames_retained());
    violations += node->service().fairness_violations();
  }
  const double batch_frames = retained - announces;
  merge.stop();
  for (auto& node : nodes) node->stop();

  stat_line("prime_s", prime_s);
  stat_line("setup_cpu_s", setup_cpu_s);
  stat_line("rank_errors", static_cast<double>(rank_errors));
  stat_line("merge_errors", static_cast<double>(merge_errors));
  stat_line("violations", static_cast<double>(violations));
  stat_line("released_batches", static_cast<double>(released.size()));
  stat_line("uplink_frames", batch_frames);
  stat_line("retained_frames", retained);
  stat_line("announces", announces);
  stat_line("merge_release_calls", static_cast<double>(release_calls));
  stat_line("merge_release_empty", static_cast<double>(release_empty));
  stat_line("merge_held_p99", held.percentile(99.0));
  stat_line("merge_gate_lag_ms_p99", gate_lag.percentile(99.0) * 1e3);
  stat_line("hold_ms_p50", hold_ms.percentile(50.0));
  stat_line("hold_ms_p99", hold_ms.percentile(99.0));
  report_spans(run_dir, "topology_host");
  stat_line("rss_peak_mb", rss_mb);
  say("LOG " + log_path);
  say("END");
  return 0;
}

namespace {

// ── generator side ──────────────────────────────────────────────────────

/// A spawned SUT process with its stdin/stdout piped to us.
class Child {
 public:
  Child(const std::string& exe, const std::vector<std::string>& args) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) return;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    std::vector<std::string> all = {exe};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    fcntl(from_child_, F_SETFL, fcntl(from_child_, F_GETFL) | O_NONBLOCK);
  }
  ~Child() { finish(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool alive() const { return pid_ > 0; }
  [[nodiscard]] int stdout_fd() const { return from_child_; }

  void send(const std::string& line) {
    const std::string s = line + "\n";
    if (to_child_ >= 0) (void)!::write(to_child_, s.data(), s.size());
  }

  /// Next stdout line, waiting up to `timeout` seconds (nullopt on
  /// timeout or EOF).
  std::optional<std::string> read_line(double timeout) {
    const double deadline = now_s() + timeout;
    for (;;) {
      if (auto line = try_line()) return line;
      const double left = deadline - now_s();
      if (left <= 0 || eof_) return std::nullopt;
      pollfd p{from_child_, POLLIN, 0};
      (void)poll(&p, 1, static_cast<int>(std::min(left, 0.05) * 1e3) + 1);
    }
  }

  /// Nonblocking: a complete line if one arrived.
  std::optional<std::string> try_line() {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(from_child_, buf, sizeof(buf));
      if (n > 0) {
        pending_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) eof_ = true;
      break;
    }
    const auto nl = pending_.find('\n');
    if (nl == std::string::npos) return std::nullopt;
    std::string line = pending_.substr(0, nl);
    pending_.erase(0, nl + 1);
    return line;
  }

  /// Sends STOP, collects the STAT lines up to END, and reaps the process.
  std::map<std::string, double> stop_and_collect(std::string* log_path) {
    std::map<std::string, double> stats;
    send("STOP");
    while (auto line = read_line(60.0)) {
      if (*line == "END") break;
      if (line->rfind("STAT ", 0) == 0) {
        const auto sp = line->find(' ', 5);
        stats[line->substr(5, sp - 5)] = std::atof(line->c_str() + sp + 1);
      } else if (line->rfind("LOG ", 0) == 0 && log_path != nullptr) {
        *log_path = line->substr(4);
      }
    }
    finish();
    return stats;
  }

  void finish() {
    if (to_child_ >= 0) ::close(to_child_);
    to_child_ = -1;
    if (pid_ > 0) {
      int status = 0;
      const double deadline = now_s() + 20.0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_s() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        sleep_until(now_s() + 1e-3);
      }
      pid_ = -1;
    }
    if (from_child_ >= 0) ::close(from_child_);
    from_child_ = -1;
  }

 private:
  pid_t pid_{-1};
  int to_child_{-1};
  int from_child_{-1};
  bool eof_{false};
  std::string pending_;
};

/// One phase of the open-loop schedule.
struct Phase {
  double start;
  double end;
  double rate;  // total offered messages/s; 0 = saturate
};

/// Generator state the client drivers share with the coordinator. The
/// generator is one thread, so nothing here is synchronised.
struct Shared {
  /// Topology runs learn releases from the SUT's REL lines.
  bool remote{false};
  std::uint64_t remote_released{0};
  bool remote_drained{false};
  bool stop{false};
  bool io_error{false};
  std::uint64_t submitted{0};
  std::uint64_t released{0};

  [[nodiscard]] std::uint64_t released_total() const {
    return remote ? remote_released : released;
  }
  [[nodiscard]] std::uint64_t in_flight() const {
    const std::uint64_t r = released_total();
    return submitted > r ? submitted - r : 0;
  }
};

/// One client connection: generates its share of the schedule, writes it
/// nonblocking, heartbeats on a fixed cadence and decodes the broadcast.
/// The generator thread steps every driver in turn.
class ClientDriver {
 public:
  ClientDriver(std::uint32_t client, WireClient spec,
               std::shared_ptr<net::ByteStream> stream, std::uint64_t seed)
      : client_(client), spec_(spec), stream_(std::move(stream)),
        rng_(seed * 7919 + client) {}

  /// Starts a new schedule.
  void start(const std::vector<Phase>& phases, double now) {
    phases_ = &phases;
    paced_ = 0;
    seek_paced(0.0);
    next_hb_ = now;
  }

  /// One step at `now`: sends every message due by then (plus a burst in
  /// a saturating phase with room), a heartbeat when one is due, flushes
  /// and reads the broadcast. False on an I/O or decode error.
  bool step(double now, Ledger& ledger, Shared& shared) {
    const std::vector<Phase>& phases = *phases_;
    while (next_due_ <= now) {
      emit_message(next_due_, now, ledger, shared);
      next_due_ += rng_.exponential(kClients / phases[paced_].rate);
      if (next_due_ >= phases[paced_].end) {
        ++paced_;
        seek_paced(phases[paced_ - 1].end);
      }
    }
    bool saturating = false;
    for (const Phase& p : phases) {
      if (p.rate <= 0.0 && now >= p.start && now < p.end) saturating = true;
    }
    burst_ = saturating && out_.size() - out_off_ < kSatBacklogBytes &&
             shared.in_flight() < kSatWindow;
    if (burst_) {
      for (int k = 0; k < 16; ++k) {
        emit_message(std::max(now, last_due_ + 1e-9), now, ledger, shared);
      }
    }
    if (now >= next_hb_) {
      append(net::Heartbeat{ClientId(client_), TimePoint(now - theta())});
      next_hb_ = now + kHeartbeatPeriod;
    }
    return flush() && read_all(ledger, shared);
  }

  /// When this driver next has something to send (now, in a saturating
  /// burst).
  [[nodiscard]] double next_event(double now) const {
    return burst_ ? now : std::min(next_due_, next_hb_);
  }
  /// What to wait for on this connection's socket.
  [[nodiscard]] pollfd poll_request() const {
    return {stream_->poll_fd(),
            static_cast<short>(POLLIN | (out_off_ < out_.size() ? POLLOUT : 0)), 0};
  }

  /// After a stop: keeps reading until this connection has seen
  /// `batches` broadcast batches (the most any connection saw), so every
  /// connection's digest covers the same stream. False on timeout.
  bool catch_up(std::uint64_t batches, Ledger& ledger, Shared& shared) {
    const double deadline = now_s() + 5.0;
    while (ranks.next < batches) {
      if (now_s() > deadline || !read_all(ledger, shared)) return false;
      pollfd p{stream_->poll_fd(), POLLIN, 0};
      (void)poll(&p, 1, 10);
    }
    return true;
  }

  RankStream ranks;
  Digest digest;
  Lateness lateness;
  Samples batch_sizes;  // coordinator only
  bool record_batches{false};

 private:
  double theta() { return rng_.normal(spec_.mu, spec_.sigma); }

  /// Next due time of the paced phases at or after `from` (infinite when
  /// none is left).
  void seek_paced(double from) {
    const std::vector<Phase>& phases = *phases_;
    while (paced_ < phases.size() && phases[paced_].rate <= 0.0) ++paced_;
    if (paced_ == phases.size()) {
      next_due_ = std::numeric_limits<double>::infinity();
      return;
    }
    next_due_ = std::max(from, phases[paced_].start) +
                rng_.exponential(kClients / phases[paced_].rate);
  }

  void emit_message(double due, double now, Ledger& ledger, Shared& shared) {
    const std::uint64_t id = ledger.submit(client_, due);
    ++shared.submitted;
    append(net::TimestampedMessage{ClientId(client_), MessageId(id),
                                   TimePoint(due - theta())});
    lateness.on_sent(due, now);
    last_due_ = due;
  }

  void append(const net::WireMessage& m) {
    const auto frame = net::encode_frame(m);
    out_.insert(out_.end(), frame.begin(), frame.end());
  }

  bool flush() {
    while (out_off_ < out_.size()) {
      const auto r = stream_->try_write(
          std::span<const std::uint8_t>(out_.data() + out_off_, out_.size() - out_off_));
      if (r.status == net::IoStatus::kOk) {
        out_off_ += r.bytes;
      } else if (r.status == net::IoStatus::kWouldBlock) {
        break;
      } else {
        return false;
      }
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    } else if (out_off_ > (1u << 20)) {
      out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(out_off_));
      out_off_ = 0;
    }
    return true;
  }

  bool read_all(Ledger& ledger, Shared& shared) {
    for (;;) {
      const auto r = stream_->try_read(rbuf_);
      if (r.status == net::IoStatus::kWouldBlock) return true;
      if (r.status != net::IoStatus::kOk) return false;
      const double t = now_s();
      decoder_.append(std::span<const std::uint8_t>(rbuf_.data(), r.bytes));
      while (auto payload = decoder_.next()) {
        auto message = net::decode(*payload);
        if (!message) return false;
        const auto* batch = std::get_if<net::BatchEmission>(&*message);
        if (batch == nullptr) continue;
        ranks.on_rank(batch->rank);
        digest.add(batch->rank);
        if (record_batches) batch_sizes.add(static_cast<double>(batch->messages.size()));
        for (MessageId mid : batch->messages) {
          const std::uint64_t id = mid.value();
          digest.add(id);
          const std::uint32_t owner = id_client(id);
          if (owner == client_ || (owner >= kClients && record_batches)) {
            if (ledger.release(id, t, batch->rank)) ++shared.released;
          }
        }
      }
      if (decoder_.error() != net::FrameError::kNone) return false;
    }
  }

  std::uint32_t client_;
  WireClient spec_;
  std::shared_ptr<net::ByteStream> stream_;
  Rng rng_;
  net::FrameDecoder decoder_;
  std::vector<std::uint8_t> rbuf_ = std::vector<std::uint8_t>(64 * 1024);
  std::vector<std::uint8_t> out_;
  std::size_t out_off_{0};
  double last_due_{0.0};
  const std::vector<Phase>* phases_{nullptr};
  std::size_t paced_{0};
  double next_due_{0.0};
  double next_hb_{0.0};
  bool burst_{false};
};

/// Runs `phases` on every driver and returns once the drain finished or
/// timed out. One thread steps all drivers and the coordinator's duties,
/// sleeping in ppoll until the next send is due or a socket (or the SUT's
/// stdout) is ready. `drained` decides when every message is out.
void run_drivers(std::vector<std::unique_ptr<ClientDriver>>& drivers, Child& child,
                 const std::vector<Phase>& phases, Ledger& ledger, Shared& shared,
                 const std::function<bool(double)>& drained,
                 const std::function<void(double)>& extra_tick) {
  shared.stop = false;
  const double gen_end = phases.back().end;
  for (auto& d : drivers) d->start(phases, now_s());
  while (!shared.stop) {
    const double now = now_s();
    for (auto& d : drivers) {
      if (!d->step(now, ledger, shared)) {
        shared.io_error = true;
        shared.stop = true;
      }
    }
    while (shared.remote) {
      const auto line = child.try_line();
      if (!line) break;
      if (line->rfind("REL ", 0) == 0) {
        shared.remote_released = std::stoull(line->substr(4));
      } else if (line->rfind("DRAINED", 0) == 0) {
        shared.remote_drained = true;
      }
    }
    if (extra_tick) extra_tick(now);
    if (now >= gen_end && (drained(now) || now > gen_end + kDrainTimeout)) shared.stop = true;

    double wake = gen_end > now ? gen_end : now + 1e-3;
    std::vector<pollfd> fds;
    for (auto& d : drivers) {
      wake = std::min(wake, d->next_event(now));
      fds.push_back(d->poll_request());
    }
    if (shared.remote) fds.push_back({child.stdout_fd(), POLLIN, 0});
    const double wait = std::max(0.0, wake - now_s());
    timespec ts{static_cast<time_t>(wait), static_cast<long>((wait - std::floor(wait)) * 1e9)};
    (void)ppoll(fds.data(), fds.size(), &ts, nullptr);
  }
  std::uint64_t batches = 0;
  for (auto& d : drivers) batches = std::max(batches, d->ranks.next);
  for (auto& d : drivers) {
    if (!shared.remote && !d->catch_up(batches, ledger, shared)) shared.io_error = true;
  }
}

/// One SUT instance with its connected, handshaken clients.
struct Deployment {
  std::unique_ptr<Child> child;
  std::vector<std::unique_ptr<ClientDriver>> drivers;
  std::vector<std::shared_ptr<net::ByteStream>> streams;
  double prime_s{0.0};
};

std::unique_ptr<Deployment> deploy(const RunArgs& args, bool topology,
                                   const std::vector<WireClient>& population,
                                   RunResult& result) {
  auto d = std::make_unique<Deployment>();
  d->child = std::make_unique<Child>(
      args.self_exe,
      std::vector<std::string>{topology ? "serve-topo" : "serve-wire", "--seed",
                               std::to_string(args.seed), "--run-dir", args.run_dir,
                               "--trace", args.trace ? "1" : "0"});
  if (!d->child->alive()) {
    result.fail("could not spawn the server process");
    return nullptr;
  }
  const auto ready = d->child->read_line(120.0);
  if (!ready || ready->rfind("READY ", 0) != 0) {
    result.fail("server did not become ready");
    return nullptr;
  }
  std::istringstream in(ready->substr(6));
  std::vector<std::string> words;
  for (std::string w; in >> w;) words.push_back(w);
  d->prime_s = std::atof(words.back().c_str());
  for (std::uint32_t c = 0; c < kClients; ++c) {
    net::Endpoint endpoint;
    endpoint.unix_path = words[topology ? c * 2 / kClients : 0];
    auto stream = net::dial(endpoint, net::RetryPolicy{});
    if (stream == nullptr) {
      result.fail("dial failed");
      return nullptr;
    }
    const net::DistributionAnnouncement hello{ClientId(c), summary_of(population[c])};
    if (topology) {
      // Shard nodes answer the join handshake with a HandshakeAck.
      if (net::perform_handshake(*stream, hello) != net::HandshakeResult::kAccepted) {
        result.fail("handshake refused");
        return nullptr;
      }
    } else if (!stream->write_all(net::encode_frame(net::WireMessage(hello)))) {
      result.fail("announce failed");
      return nullptr;
    }
    d->streams.push_back(stream);
    d->drivers.push_back(std::make_unique<ClientDriver>(c, population[c], stream, args.seed));
  }
  d->drivers[0]->record_batches = true;
  return d;
}

/// The drain condition for either deployment kind.
std::function<bool(double)> drain_check(Deployment& d, Shared& shared, bool topology) {
  if (!topology) {
    return [&shared](double) { return shared.released_total() == shared.submitted; };
  }
  auto requested = std::make_shared<bool>(false);
  shared.remote_drained = false;
  return [&d, &shared, requested](double) {
    if (!*requested) {
      d.child->send("DRAIN " + std::to_string(shared.submitted));
      *requested = true;
    }
    return shared.remote_drained;
  };
}

/// Stops the SUT and returns its STAT lines by key.
std::map<std::string, double> teardown(Deployment& d, RunResult& result,
                                       std::string* log_path) {
  auto stats = d.child->stop_and_collect(log_path);
  for (auto& stream : d.streams) stream->shutdown();
  if (stats.count("rss_peak_mb") == 0) result.fail("server exited without reporting");
  return stats;
}

/// Topology: the release log written by the merge tier's host, joined
/// into `ledger` by id; the log is removed afterwards.
void load_release_log(const std::string& path, Ledger& ledger, RunResult& result) {
  std::ifstream in(path, std::ios::binary);
  if (!in) result.fail("merge release log missing");
  std::uint64_t id = 0;
  double t = 0.0;
  std::uint64_t pos = 0;
  while (in.read(reinterpret_cast<char*>(&id), sizeof(id)) &&
         in.read(reinterpret_cast<char*>(&t), sizeof(t)) &&
         in.read(reinterpret_cast<char*>(&pos), sizeof(pos))) {
    ledger.release(id, t, pos);
  }
  std::remove(path.c_str());
}

/// The measured phases are cut into kWindowsPerRun equal windows. At each
/// boundary the generator samples the host's steal time and the SUT's
/// CPU time.
constexpr int kWindowsPerRun = 80;

}  // namespace

RunResult run_wire(const RunArgs& args, bool topology) {
  RunResult result;
  const auto population = wire_population(args.seed);
  const double seconds = args.seconds;
  const double warm_rate = args.rate_high;

  // ── set-up, repeated; the last deployment is the measured one ────────
  // One set-up is the SUT process's CPU time from launch to listening:
  // spawn, prime, listen (and, for topology, the uplink connects). On a
  // shared host the wall-clock figure, a few milliseconds, moved by 30%
  // between sets of runs of the same code; the CPU clock leaves out the
  // time the host took the CPU away. Handshakes and the first release
  // cost the SUT microseconds, less than the CPU its host loop spends
  // waiting for them varies, so they are not counted. A 0.3 s paced
  // warm-up burst then runs before the measured phases.
  Samples setup;
  std::unique_ptr<Deployment> d;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<Shared> shared;
  const int setups = args.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    d = deploy(args, topology, population, result);
    if (!d) return result;
    ledger = std::make_unique<Ledger>(kClients);
    shared = std::make_unique<Shared>();
    const double w0 = now_s() + 0.01;
    shared->remote = topology;
    run_drivers(d->drivers, *d->child, {{w0, w0 + 0.3, warm_rate}}, *ledger, *shared,
                drain_check(*d, *shared, topology), nullptr);
    if (!topology && shared->released_total() != shared->submitted) {
      result.fail("warm-up traffic was not fully released");
    }
    if (k + 1 < setups) {
      std::string log_path;
      auto stats = teardown(*d, result, &log_path);
      if (topology) load_release_log(log_path, *ledger, result);
      setup.add(stats["setup_cpu_s"]);
    }
  }

  // ── measured phases ───────────────────────────────────────────────────
  const double t_low = now_s() + 0.01;
  const double t_high = t_low + 0.25 * seconds;
  const double t_sat = t_high + 0.3 * seconds;
  const double t_sat2 = t_sat + 0.45 * seconds;  // traced runs: a second, traced sat phase
  const double t_end = args.trace ? t_sat2 + 0.45 * seconds : t_sat2;
  std::vector<Phase> phases = {{t_low, t_high, args.rate_low},
                               {t_high, t_sat, args.rate_high},
                               {t_sat, t_sat2, 0.0}};
  if (args.trace) phases.push_back({t_sat2, t_end, 0.0});
  const double window = seconds / kWindowsPerRun;
  std::vector<HostMark> marks;
  bool trace_off_sent = false;
  bool trace_on_sent = false;
  if (args.trace) d->child->send("TRACE 1");
  const pid_t child_pid = d->child->pid();
  run_drivers(d->drivers, *d->child, phases, *ledger, *shared, drain_check(*d, *shared, topology),
              [&](double now) {
                const double next = t_low + window * static_cast<double>(marks.size());
                if (now >= next && next <= t_end + window / 2) {
                  marks.push_back({next, steal_s(), process_cpu_s(child_pid)});
                }
                if (args.trace && !trace_off_sent && now >= t_sat) {
                  d->child->send("TRACE 0");
                  trace_off_sent = true;
                }
                if (args.trace && !trace_on_sent && now >= t_sat2) {
                  d->child->send("TRACE 1");
                  trace_on_sent = true;
                }
              });
  if (shared->io_error) result.fail("client connection failed mid-run");

  std::string log_path;
  auto stats = teardown(*d, result, &log_path);

  if (topology) load_release_log(log_path, *ledger, result);
  setup.add(stats["setup_cpu_s"]);

  // ── correctness gate ─────────────────────────────────────────────────
  const Verdict v = ledger->verdict();
  result.attempted = v.submitted;
  if (v.failures() > 0) {
    result.fail_messages("exactly-once violated: missing " + std::to_string(v.missing) +
                             ", duplicates " + std::to_string(v.duplicates) + ", unknown " +
                             std::to_string(v.unknown),
                         v.failures());
  }
  if (!topology) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      if (d->drivers[c]->ranks.errors > 0) result.fail("non-dense ranks on a connection");
      if (d->drivers[c]->digest.h != d->drivers[0]->digest.h) {
        result.fail("connections saw different emission streams");
      }
    }
    if (stats["wire_errors"] > 0) result.fail("WireError on a connection");
    if (stats["live_connections"] != kClients) result.fail("a connection was dropped");
    if (stats["frames_dropped"] > 0) result.fail("egress frames dropped");
  } else {
    if (stats["rank_errors"] > 0) result.fail("non-dense per-node ranks at the merge");
    if (stats["merge_errors"] > 0) result.fail("MergeError on an uplink");
  }

  // ── end-to-end metrics ───────────────────────────────────────────────
  // Figures skip the first 10% of each phase (the rate transition) and
  // are taken over the phase's quietest windows. Throughput is the mean
  // release rate of the saturating phase; a latency percentile is taken
  // over every message due in the windows; CPU per message is the SUT's
  // CPU in the high phase's windows over the messages released in them.
  auto& m = result.values;
  auto windows_of = [&](double from, double to) {
    return quiet_windows(marks, from + 0.1 * (to - from), to);
  };
  auto released_in = [&](const std::vector<Window>& ws) {
    double n = 0.0;
    for (const Window& w : ws) n += static_cast<double>(ledger->released_between(w.from, w.to));
    return n;
  };
  auto latencies_in = [&](const std::vector<Window>& ws) {
    Samples s;
    for (const Window& w : ws) s.append(ledger->latencies(w.from, w.to));
    return s;
  };
  auto throughput_of = [&](double from, double to) {
    const auto ws = windows_of(from, to);
    double span = 0.0;
    for (const Window& w : ws) span += w.to - w.from;
    return span > 0 ? released_in(ws) / span : 0.0;
  };
  Samples low = latencies_in(windows_of(t_low, t_high));
  const auto high_windows = windows_of(t_high, t_sat);
  Samples high = latencies_in(high_windows);
  const double throughput = throughput_of(t_sat, t_sat2);
  m["setup_s"] = setup.median();
  m["throughput_msg_s"] = throughput;
  m["lat_p50_ms.low"] = low.percentile(50) * 1e3;
  m["lat_p99_ms.low"] = low.percentile(99) * 1e3;
  m["lat_p50_ms.high"] = high.percentile(50) * 1e3;
  m["lat_p99_ms.high"] = high.percentile(99) * 1e3;
  m["lat_p90_ms.low"] = low.percentile(90) * 1e3;
  m["lat_p90_ms.high"] = high.percentile(90) * 1e3;
  m["samples.low"] = static_cast<double>(low.count());
  m["samples.high"] = static_cast<double>(high.count());
  double high_cpu_s = 0.0;
  for (const Window& w : high_windows) high_cpu_s += w.sut_cpu_s;
  m["cpu_us_per_msg"] = high_cpu_s * 1e6 / std::max(1.0, released_in(high_windows));
  m["rss_peak_mb"] = stats["rss_peak_mb"];
  m["ras"] = ledger->ras();
  m["fair_share"] = 1.0 - stats["violations"] / std::max(1.0, static_cast<double>(v.released));

  // ── per-layer metrics (meaningful in the traced run) ─────────────────
  auto span = [&](const std::string& name, const char* field) {
    return stats["span." + name + "." + field];
  };
  const double msgs = std::max(1.0, static_cast<double>(v.released));
  if (!topology) {
    const double reads = std::max(1.0, stats["io.read_calls"]);
    m["net.read_calls"] = stats["io.read_calls"];
    m["net.read_bytes_per_call"] = stats["io.read_bytes"] / std::max(1.0, stats["io.read_ok"]);
    m["net.read_busy_s"] = span("net.try_read", "total_s");
    m["net.read_wouldblock_ratio"] = stats["io.read_wouldblock"] / reads;
    m["net.write_calls"] = stats["io.write_calls"];
    m["net.write_busy_s"] = span("net.try_write", "total_s");
    m["net.write_partial_ratio"] = stats["io.write_partial"] / std::max(1.0, stats["io.write_calls"]);
    m["net.bytes_in_per_msg"] = stats["bytes_in"] / std::max(1.0, stats["submits_in"]);
    m["net.bytes_out_per_msg"] = stats["bytes_out"] / (msgs * kClients);
    m["net.frames_dropped"] = stats["frames_dropped"];
    m["net.poller_cpu_s"] = stats["poller_cpu_s"];
    m["net.pump_calls"] = span("net.pump", "count");
    m["net.pump_ns_p50"] = span("net.pump", "p50_ns");
    m["net.pump_ns_p99"] = span("net.pump", "p99_ns");
    m["net.decode_ns_per_frame"] = stats["decode_ns_per_frame"];
    m["net.encode_ns_per_frame"] = stats["encode_ns_per_frame"];
    const double pumps = std::max(1.0, stats["pump_calls"]);
    m["core.poll_empty_ratio"] = stats["pump_empty"] / pumps;
    m["core.gate_blocked_ratio"] = stats["pump_gate_blocked"] / pumps;
  } else {
    m["dist.shard_pump_calls"] = span("dist.shard_pump", "count");
    m["dist.shard_pump_ns_p99"] = span("dist.shard_pump", "p99_ns");
    m["dist.uplink_frames"] = stats["uplink_frames"];
    // Batch frames only: the pump-paced SafeTimeAnnounce frames are in
    // dist.announces.
    m["dist.uplink_msgs_per_frame"] = msgs / std::max(1.0, stats["uplink_frames"]);
    m["dist.announces"] = stats["announces"];
    m["dist.retained_frames"] = stats["retained_frames"];
    m["dist.merge_release_calls"] = stats["merge_release_calls"];
    m["dist.merge_release_ns_p99"] = span("dist.merge_release", "p99_ns");
    m["dist.merge_release_empty_ratio"] =
        stats["merge_release_empty"] / std::max(1.0, stats["merge_release_calls"]);
    m["dist.merge_held_p99"] = stats["merge_held_p99"];
    m["dist.merge_gate_lag_ms_p99"] = stats["merge_gate_lag_ms_p99"];
    m["core.hold_ms_p50"] = stats["hold_ms_p50"];
    m["core.hold_ms_p99"] = stats["hold_ms_p99"];
  }
  m["core.prime_s"] = stats["prime_s"];
  m["core.msgs_per_batch_p50"] =
      topology ? msgs / std::max(1.0, stats["released_batches"])
               : d->drivers[0]->batch_sizes.percentile(50.0);
  m["core.late_arrivals"] = stats["violations"];
  Lateness lag;
  for (auto& driver : d->drivers) lag.append(driver->lateness);
  m["gen.lag_ms_p99"] = lag.p99_ms();
  m["gen.offered_msg_s"] =
      static_cast<double>(ledger->latencies(t_high, t_sat).count()) / (t_sat - t_high);
  if (args.trace) {
    const double traced = throughput_of(t_sat2, t_end);
    m["trace.overhead_share"] = throughput > 0 ? 1.0 - traced / throughput : 0.0;
    for (const auto& [key, value] : stats) {
      if (key.rfind("span.", 0) == 0 && key.size() > 7 && key.compare(key.size() - 7, 7, ".self_s") == 0) {
        result.self_s[key.substr(5, key.size() - 12)] = value;
      }
    }
  }
  return result;
}

}  // namespace pb
