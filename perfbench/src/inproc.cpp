// The two in-process workloads.
//
// straggler_backlog: one thread drives 64 sessions of a default 1-shard
// FairOrderingService with Gumbel and bimodal offsets (the numeric path).
// Arrivals are Poisson in a virtual clock; periodically one client goes
// silent while 12k messages from the others pile up behind the closed
// completeness gate, then delivers its held messages in one burst and the
// backlog drains. Every run of a schedule is deterministic, so its
// emission stream has a digest.
//
// offline_tournament: TommySequencer::sequence over consecutive 256-message
// windows from 32 bimodal clients — the tournament path (graph/ and the
// pairwise probabilities).
//
// Both replay their input as fast as possible for throughput, and pace it
// in wall-clock time at the fixed `low` and `high` rates for latency. Both
// time their work on the driving thread's CPU clock (see thread_cpu_now).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "core/service.hpp"
#include "core/tommy_sequencer.hpp"
#include "graph/ordering.hpp"
#include "graph/tournament.hpp"
#include "metrics/ras.hpp"
#include "sim/population.hpp"
#include "stats/analytic.hpp"
#include "stats/gaussian.hpp"
#include "stats/mixture.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tommy;

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

constexpr double kOffsetScale = 20e-6;  // deviation scale of the populations

// Share of the run length spent replaying as fast as possible, and spent
// in each paced phase. On a shared host CPU speed can wander by up to 2x over
// seconds, so throughput is the mean over the whole fast phase (total
// messages over total time) rather than a per-repetition figure.
constexpr double kFastShare = 0.5;
constexpr double kPacedShare = 0.2;

/// Messages over seconds, accumulated across repetitions.
struct RateSum {
  double messages{0.0};
  double seconds{0.0};
  void add(double m, double s) {
    messages += m;
    seconds += s;
  }
  [[nodiscard]] double rate() const { return seconds > 0 ? messages / seconds : 0.0; }
};

/// Stratified parameter draws: n evenly spaced quantiles of [lo, hi] in a
/// shuffled order. The populations are drawn from a fixed generator, so
/// every seed sees the same clients: an earlier seed-drawn population
/// moved throughput by 30% from seed to seed. The seed drives all traffic.
std::vector<double> strata(std::size_t n, double lo, double hi, Rng& rng) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  }
  rng.shuffle(v);
  return v;
}

/// Gumbel clients (location over ±scale, scale parameter 0.3–1×scale),
/// appended with ids continuing from out.size().
void add_gumbel(std::vector<sim::ClientSpec>& out, std::size_t n, Rng& rng) {
  const auto loc = strata(n, -kOffsetScale, kOffsetScale, rng);
  const auto scale = strata(n, 0.3 * kOffsetScale, kOffsetScale, rng);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({ClientId(static_cast<std::uint32_t>(out.size())),
                   std::make_unique<stats::Gumbel>(loc[i], scale[i])});
  }
}

/// Bimodal clients: two Gaussians (a sync daemon flipping between two
/// paths), separated by 1–3×scale, each σ 0.3–0.8×scale.
void add_bimodal(std::vector<sim::ClientSpec>& out, std::size_t n, Rng& rng) {
  const auto center = strata(n, -kOffsetScale, kOffsetScale, rng);
  const auto separation = strata(n, kOffsetScale, 3 * kOffsetScale, rng);
  const auto sigma = strata(n, 0.3 * kOffsetScale, 0.8 * kOffsetScale, rng);
  const auto weight = strata(n, 0.3, 0.7, rng);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({ClientId(static_cast<std::uint32_t>(out.size())),
                   std::make_unique<stats::Mixture>(stats::Mixture::of(
                       weight[i],
                       std::make_unique<stats::Gaussian>(center[i] - separation[i] / 2, sigma[i]),
                       1.0 - weight[i],
                       std::make_unique<stats::Gaussian>(center[i] + separation[i] / 2, sigma[i])))});
  }
}

// ── straggler_backlog ───────────────────────────────────────────────────

constexpr std::uint32_t kStragglerClients = 64;
constexpr double kQuantum = 250e-6;            // virtual poll cadence
constexpr std::size_t kEpisodeEvery = 40000;   // messages between stragglers
constexpr std::size_t kEpisodeFirst = 8000;
constexpr std::size_t kSilence = 12000;        // messages piled up per episode
constexpr std::size_t kFastMessages = 520000;  // one throughput repetition
constexpr double kFastRate = 200000.0;         // its virtual offered rate

sim::Population straggler_population() {
  Rng rng(0x57A6ULL);
  std::vector<sim::ClientSpec> specs;
  add_gumbel(specs, kStragglerClients / 2, rng);
  add_bimodal(specs, kStragglerClients / 2, rng);
  return sim::Population(std::move(specs));
}

/// Offsets drawn once per client and then cycled: keeps distribution
/// sampling (bisection, for mixtures) out of every timed loop.
class ThetaPool {
 public:
  ThetaPool(const sim::Population& pop, Rng& rng) : draws_(pop.size()) {
    for (std::size_t c = 0; c < pop.size(); ++c) {
      draws_[c].resize(1024);
      for (double& d : draws_[c]) d = pop.clients()[c].offset->sample(rng);
    }
  }
  [[nodiscard]] double at(std::uint32_t client, std::uint64_t k) const {
    const auto& d = draws_[client];
    return d[k % d.size()];
  }

 private:
  std::vector<std::vector<double>> draws_;
};

struct Msg {
  std::uint32_t client;
  std::uint64_t quantum;  // poll quantum the message is ingested in
  double due;             // ground truth (virtual seconds)
  double stamp;           // due − θ
  double arrival;         // sequencer clock at receipt
};

/// One deterministic input. Quantum k covers (start + (k−1)Q, start + kQ];
/// all scheduling decisions are quantum indices, so a time-shifted copy
/// is ingested and polled exactly like the original.
struct Schedule {
  std::vector<Msg> messages;  // sorted by quantum, then arrival
  struct Silence {
    std::uint32_t client;
    std::uint64_t from_q;  // silent for quanta in [from_q, to_q)
    std::uint64_t to_q;
  };
  std::vector<Silence> silences;
  double start{0.0};
  double end{0.0};
  std::uint64_t last_quantum{0};

  void shift(double dt) {
    start += dt;
    end += dt;
    for (Msg& m : messages) {
      m.due += dt;
      m.stamp += dt;
      m.arrival += dt;
    }
  }
};

/// `count` Poisson arrivals at `rate` from `start` (virtual seconds).
/// Straggler episodes hold one client's messages and heartbeats while
/// kSilence messages arrive, then deliver its held messages at once.
Schedule make_schedule(const sim::Population& pop, const ThetaPool& theta, Rng& rng,
                       double rate, std::size_t count, double start) {
  Schedule s;
  s.start = start;
  double t = start;
  const auto n = static_cast<std::int64_t>(pop.size());
  auto quantum_of = [&](double at) {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil((at - start) / kQuantum)));
  };
  s.messages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(1.0 / rate);
    const auto c = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    const double th = theta.at(c, rng.next_u64());
    s.messages.push_back({c, quantum_of(t), t, t - th, t});
  }
  // Stragglers alternate between the Gumbel and the bimodal half of the
  // population, so every seed's input mixes the two kinds alike.
  std::int64_t half = 0;
  for (std::size_t first = kEpisodeFirst; first + kSilence < count; first += kEpisodeEvery) {
    const auto c = static_cast<std::uint32_t>(half * n / 2 + rng.uniform_int(0, n / 2 - 1));
    half ^= 1;
    const std::uint64_t from_q = s.messages[first].quantum;
    const std::uint64_t to_q = s.messages[first + kSilence].quantum + 1;
    s.silences.push_back({c, from_q, to_q});
    for (std::size_t i = first; i <= first + kSilence; ++i) {
      if (s.messages[i].client == c) {
        s.messages[i].quantum = to_q;
        s.messages[i].arrival = start + static_cast<double>(to_q) * kQuantum;
      }
    }
  }
  std::stable_sort(s.messages.begin(), s.messages.end(), [](const Msg& a, const Msg& b) {
    return a.quantum < b.quantum || (a.quantum == b.quantum && a.arrival < b.arrival);
  });
  s.end = t;
  s.last_quantum = s.messages.empty() ? 0 : s.messages.back().quantum;
  return s;
}

/// What one schedule execution observed.
struct Execution {
  std::unique_ptr<Ledger> ledger;
  Digest digest;
  double cpu_s{0.0};
  std::uint64_t released{0};
  Samples batch_sizes;
  Samples hold_ms;
  Samples pending;
  Samples burst_ms;
  std::uint64_t polls{0};
  std::uint64_t empty_polls{0};
  std::uint64_t gate_blocked{0};
  double lateness_p99_ms{0.0};
};

class StragglerSystem {
 public:
  StragglerSystem(const sim::Population& pop, const ThetaPool& theta)
      : pop_(pop), theta_(theta) {
    pop.seed_registry(registry_);
    service_ = std::make_unique<core::FairOrderingService>(registry_, pop.ids());
    for (ClientId c : pop.ids()) sessions_.push_back(service_->open_session(c));
  }

  /// The O(N²) numeric prime: every critical gap filled before traffic.
  void prime() {
    const core::OnlineConfig online;
    service_->engine().prime(online.threshold, online.p_safe, true);
  }

  core::FairOrderingService& service() { return *service_; }

  /// Runs `s` quantum by quantum, then heartbeat-only quanta until the
  /// buffer is empty. With `wall_offset` set, quantum q runs when the
  /// monotonic clock reaches q + offset (paced); otherwise back to back.
  /// Ids are (client, seq_base + k). A quantum's releases are stamped at
  /// the end of its service on a single-server queue: it starts at the
  /// quantum's end or when the previous quantum finished, whichever is
  /// later, and takes the thread CPU time its submits and poll used.
  /// Time the host took the CPU away (preemption, steal) is not counted.
  Execution execute(const Schedule& s, std::uint64_t seq_base,
                    std::optional<double> wall_offset) {
    Execution ex;
    ex.ledger = std::make_unique<Ledger>(static_cast<std::uint32_t>(pop_.size()), seq_base);
    const double off = wall_offset.value_or(0.0);
    std::vector<std::vector<core::Submission>> per_client(pop_.size());
    std::vector<std::uint64_t> ids(s.messages.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> released_ids;  // (id, rank)
    for (std::size_t i = 0; i < s.messages.size(); ++i) {
      ids[i] = ex.ledger->submit(s.messages[i].client, s.messages[i].due + off);
    }
    const std::uint64_t rank_base = next_rank_;
    Lateness lateness;
    const double cpu0 = thread_cpu_now();
    double busy_until = -std::numeric_limits<double>::infinity();
    std::size_t next = 0;
    auto silent = [&](std::uint32_t c, std::uint64_t k) {
      for (const auto& sil : s.silences) {
        if (sil.client == c && k >= sil.from_q && k < sil.to_q) return true;
      }
      return false;
    };
    // Drain: heartbeat-only quanta after the last message, bounded.
    const std::uint64_t drain_limit =
        s.last_quantum + static_cast<std::uint64_t>(1.0 / kQuantum);
    for (std::uint64_t k = 1; next < s.messages.size() || service_->pending_count() > 0; ++k) {
      if (k > drain_limit) break;
      const double q_end = s.start + static_cast<double>(k) * kQuantum;
      if (wall_offset) {
        const double target = q_end + off;
        if (now_s() < target) sleep_until(target);
        lateness.on_sent(target, now_s());
      }
      const double service0 = thread_cpu_now();
      for (auto& v : per_client) v.clear();
      while (next < s.messages.size() && s.messages[next].quantum <= k) {
        const Msg& m = s.messages[next];
        per_client[m.client].push_back({TimePoint(m.stamp), MessageId(ids[next]),
                                        TimePoint(std::min(m.arrival, q_end))});
        ++next;
      }
      for (std::uint32_t c = 0; c < per_client.size(); ++c) {
        if (!per_client[c].empty()) {
          trace::Span span("core.submit_batch");
          sessions_[c].submit_batch(per_client[c]);
        }
      }
      for (std::uint32_t c = 0; c < per_client.size(); ++c) {
        if (silent(c, k)) continue;
        const double th = theta_.at(c, k * per_client.size() + c);
        sessions_[c].heartbeat(TimePoint(q_end - th), TimePoint(q_end));
      }
      std::uint64_t released_now = 0;
      const double p0 = now_s();
      std::size_t batches = 0;
      // The per-layer samples are kept only when tracing: untraced runs
      // time nothing but the sequencer and the correctness bookkeeping.
      const bool traced = trace::enabled();
      {
        trace::Span span("core.poll");
        batches = service_->poll(TimePoint(q_end), [&](core::EmissionRecord&& r, std::uint32_t) {
          const std::uint64_t rank = r.batch.rank;
          next_rank_ = rank + 1;
          ex.digest.add(rank - rank_base);
          if (traced) ex.batch_sizes.add(static_cast<double>(r.batch.messages.size()));
          for (const core::Message& m : r.batch.messages) {
            ex.digest.add(m.id.value() - (static_cast<std::uint64_t>(m.client.value()) << kSeqBits) - seq_base);
            ex.digest.add(m.client.value());
            if (traced) ex.hold_ms.add((r.emitted_at - m.arrival).millis());
            released_ids.push_back({m.id.value(), rank});
          }
        });
      }
      const double p1 = now_s();
      busy_until = std::max(busy_until, q_end + off) + thread_cpu_now() - service0;
      for (const auto& [id, rank] : released_ids) ex.ledger->release(id, busy_until, rank);
      released_now = released_ids.size();
      released_ids.clear();
      ++ex.polls;
      if (batches == 0) {
        ++ex.empty_polls;
        if (service_->next_safe_time() <= TimePoint(q_end)) ++ex.gate_blocked;
      }
      if (traced && released_now >= 5000) ex.burst_ms.add((p1 - p0) * 1e3);
      if (traced) ex.pending.add(static_cast<double>(service_->pending_count()));
      ex.released += released_now;
    }
    ex.cpu_s = thread_cpu_now() - cpu0;
    ex.lateness_p99_ms = lateness.p99_ms();
    return ex;
  }

 private:
  const sim::Population& pop_;
  const ThetaPool& theta_;
  core::ClientRegistry registry_;
  std::unique_ptr<core::FairOrderingService> service_;
  std::vector<core::FairOrderingService::Session> sessions_;
  std::uint64_t next_rank_{0};
};

}  // namespace

RunResult run_straggler(const RunArgs& args) {
  RunResult result;
  const sim::Population pop = straggler_population();
  Rng theta_rng(args.seed + 3);
  const ThetaPool theta(pop, theta_rng);

  // ── set-up: construct, prime every critical gap, warm up ─────────────
  Samples setup;
  std::unique_ptr<StragglerSystem> sys;
  double prime_s = 0.0;
  const int setups = args.trace ? 1 : kSetups;
  std::uint64_t seq_base = 0;
  constexpr std::uint64_t kSeqStride = std::uint64_t{1} << 24;  // ids per schedule run
  double vclock = 1.0;
  for (int k = 0; k < setups; ++k) {
    const double t0 = process_cpu_now();
    sys = std::make_unique<StragglerSystem>(pop, theta);
    const double p0 = process_cpu_now();
    sys->prime();
    prime_s = process_cpu_now() - p0;
    Rng warm_rng(args.seed + 17);
    const Schedule warm = make_schedule(pop, theta, warm_rng, kFastRate, 4000, 1.0);
    Execution ex = sys->execute(warm, 0, std::nullopt);
    if (ex.ledger->verdict().failures() > 0) result.fail("warm-up not released exactly once");
    vclock = warm.end + 1.0;
    setup.add(process_cpu_now() - t0);
  }
  seq_base = kSeqStride;

  Verdict total;
  auto account = [&](const Execution& ex) {
    const Verdict v = ex.ledger->verdict();
    total.submitted += v.submitted;
    total.released += v.released;
    total.missing += v.missing;
    total.duplicates += v.duplicates;
    total.unknown += v.unknown;
  };

  // ── throughput: the same fixed input, repeated back to back ──────────
  Rng fast_rng(args.seed * 31 + 7);
  const Schedule fast = make_schedule(pop, theta, fast_rng, kFastRate, kFastMessages, 0.0);
  const double span = fast.end + 1.0;
  RateSum rates;
  RateSum traced_rates;
  std::uint64_t digest = 0;
  double ras = 0.0;
  Execution traced_fast;
  const double fast_budget = kFastShare * args.seconds;
  const double fast_t0 = now_s();
  for (int rep = 0;; ++rep) {
    const bool traced_rep = args.trace && rep % 2 == 1;
    trace::enable(traced_rep);
    Schedule shifted = fast;
    shifted.shift(vclock);
    Execution ex = sys->execute(shifted, seq_base, std::nullopt);
    trace::enable(false);
    vclock += span;
    seq_base += kSeqStride;
    account(ex);
    (traced_rep ? traced_rates : rates).add(static_cast<double>(ex.released), ex.cpu_s);
    if (rep == 0) {
      digest = ex.digest.h;
      ras = ex.ledger->ras();
    } else if (ex.digest.h != digest) {
      result.fail_messages("emission digest not reproduced on repetition " + std::to_string(rep),
                           ex.released);
    }
    if (traced_rep && traced_fast.polls == 0) traced_fast = std::move(ex);
    if (rep >= 3 && now_s() - fast_t0 > fast_budget) break;
  }
  result.digest = hex(digest);

  // ── latency: paced at the fixed low and high rates ───────────────────
  struct PacedPhase {
    double rate;
    Samples latency;
    double cpu_us_per_msg{0.0};
    double lateness_p99_ms{0.0};
  };
  PacedPhase phases[2] = {{args.rate_low, {}, 0.0, 0.0}, {args.rate_high, {}, 0.0, 0.0}};
  Execution traced_paced;
  trace::enable(args.trace);
  for (PacedPhase& phase : phases) {
    const auto count = static_cast<std::size_t>(phase.rate * kPacedShare * args.seconds);
    Rng paced_rng(args.seed * 131 + static_cast<std::uint64_t>(phase.rate));
    const Schedule paced = make_schedule(pop, theta, paced_rng, phase.rate, count, vclock);
    const double offset = now_s() + 0.01 - vclock;
    Execution ex = sys->execute(paced, seq_base, offset);
    vclock = paced.end + 1.0;
    seq_base += kSeqStride;
    account(ex);
    phase.latency = ex.ledger->latencies(-std::numeric_limits<double>::infinity(),
                                         std::numeric_limits<double>::infinity());
    phase.cpu_us_per_msg = ex.cpu_s * 1e6 / std::max<double>(1.0, static_cast<double>(ex.released));
    phase.lateness_p99_ms = ex.lateness_p99_ms;
    if (&phase == &phases[1]) traced_paced = std::move(ex);
  }
  trace::enable(false);

  result.attempted = total.submitted;
  if (total.failures() > 0) {
    result.fail_messages("exactly-once violated: missing " + std::to_string(total.missing) +
                             ", duplicates " + std::to_string(total.duplicates),
                         total.failures());
  }
  const double released = std::max(1.0, static_cast<double>(total.released));
  const double violations = static_cast<double>(sys->service().fairness_violations());

  auto& m = result.values;
  m["setup_s"] = setup.median();
  m["throughput_msg_s"] = rates.rate();
  m["lat_p50_ms.low"] = phases[0].latency.percentile(50) * 1e3;
  m["lat_p99_ms.low"] = phases[0].latency.percentile(99) * 1e3;
  m["lat_p50_ms.high"] = phases[1].latency.percentile(50) * 1e3;
  m["lat_p99_ms.high"] = phases[1].latency.percentile(99) * 1e3;
  m["lat_p90_ms.low"] = phases[0].latency.percentile(90) * 1e3;
  m["lat_p90_ms.high"] = phases[1].latency.percentile(90) * 1e3;
  m["samples.low"] = static_cast<double>(phases[0].latency.count());
  m["samples.high"] = static_cast<double>(phases[1].latency.count());
  m["cpu_us_per_msg"] = phases[1].cpu_us_per_msg;
  m["rss_peak_mb"] = rss_peak_mb(::getpid());
  m["ras"] = ras;
  m["fair_share"] = 1.0 - violations / released;

  // Per-layer (traced run).
  m["core.prime_s"] = prime_s;
  m["core.late_arrivals"] = violations;
  m["gen.lag_ms_p99"] = phases[1].lateness_p99_ms;
  m["gen.offered_msg_s"] = args.rate_high;
  if (args.trace) {
    const auto spans = trace::collect();
    auto stat = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? trace::Stat{} : it->second;
    };
    const trace::Stat submit = stat("core.submit_batch");
    const trace::Stat poll = stat("core.poll");
    Execution& fx = traced_fast;
    Execution& px = traced_paced;
    m["core.submit_ns_per_msg"] = submit.total_s * 1e9 / released;
    m["core.poll_calls"] = static_cast<double>(poll.count);
    m["core.poll_ns_p50"] = static_cast<double>(poll.duration.percentile_ns(0.5));
    m["core.poll_ns_p99"] = static_cast<double>(poll.duration.percentile_ns(0.99));
    const double polls = std::max<double>(1.0, static_cast<double>(fx.polls + px.polls));
    m["core.poll_empty_ratio"] = static_cast<double>(fx.empty_polls + px.empty_polls) / polls;
    m["core.gate_blocked_ratio"] = static_cast<double>(fx.gate_blocked + px.gate_blocked) / polls;
    fx.batch_sizes.append(px.batch_sizes);
    m["core.msgs_per_batch_p50"] = fx.batch_sizes.median();
    fx.pending.append(px.pending);
    m["core.pending_p99"] = fx.pending.percentile(99);
    m["core.release_burst_ms"] = fx.burst_ms.median();
    fx.hold_ms.append(px.hold_ms);
    m["core.hold_ms_p50"] = fx.hold_ms.percentile(50);
    m["core.hold_ms_p99"] = fx.hold_ms.percentile(99);
    m["trace.overhead_share"] = 1.0 - traced_rates.rate() / rates.rate();
    for (const auto& [name, s] : spans) result.self_s[name] = s.self_s;
  }
  return result;
}

// ── offline_tournament ──────────────────────────────────────────────────
namespace {

constexpr std::uint32_t kOfflineClients = 32;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kDigestWindows = 12;
constexpr double kOfflineGenRate = 200000.0;  // virtual rate of the fast input
// Run-length shares of the fast phase and of the low and high paced
// phases. A paced phase yields one latency sample per window, so the paced
// phases get half the run: at the fixed rates that is 130 and 185
// windows in a 20 s run.
constexpr double kOfflineFastShare = 0.4;
constexpr double kOfflinePacedShare[2] = {0.35, 0.25};

sim::Population offline_population() {
  Rng rng(0x0FF1ULL);
  std::vector<sim::ClientSpec> specs;
  add_bimodal(specs, kOfflineClients, rng);
  return sim::Population(std::move(specs));
}

/// `count` windows of consecutive Poisson messages at `rate`.
std::vector<std::vector<core::Message>> make_windows(const sim::Population& pop, Rng& rng,
                                                     double rate, std::size_t count,
                                                     double start, std::uint64_t& next_id) {
  std::vector<std::vector<core::Message>> windows(count);
  double t = start;
  for (auto& w : windows) {
    w.reserve(kWindow);
    for (std::size_t i = 0; i < kWindow; ++i) {
      t += rng.exponential(1.0 / rate);
      const auto c = static_cast<std::uint32_t>(rng.uniform_int(0, kOfflineClients - 1));
      const double theta = pop.clients()[c].offset->sample(rng);
      w.push_back({MessageId(next_id++), ClientId(c), TimePoint(t - theta), TimePoint(t)});
    }
  }
  return windows;
}

/// Checks one window's result (every message exactly once, dense ranks)
/// and folds it into `digest`; returns the window's normalised RAS. A
/// failed window counts all its messages as failed.
double check_window(const std::vector<core::Message>& window,
                    const core::SequencerResult& out, Digest& digest, RunResult& result) {
  std::vector<metrics::RankedMessage> ranked;
  RankStream ranks;
  std::vector<std::uint64_t> ids;
  for (const core::Batch& b : out.batches) {
    ranks.on_rank(b.rank);
    digest.add(b.rank);
    for (const core::Message& m : b.messages) {
      digest.add(m.id.value());
      ids.push_back(m.id.value());
      ranked.push_back({m.id, m.client, m.arrival, b.rank});
    }
  }
  std::vector<std::uint64_t> expected;
  for (const core::Message& m : window) expected.push_back(m.id.value());
  std::sort(ids.begin(), ids.end());
  std::sort(expected.begin(), expected.end());
  if (ids != expected || ranks.errors > 0) {
    result.fail_messages(ids != expected ? "offline window lost or duplicated a message"
                                         : "offline ranks not dense",
                         window.size());
  }
  return metrics::rank_agreement(ranked).normalized();
}

}  // namespace

RunResult run_offline(const RunArgs& args) {
  RunResult result;
  const sim::Population pop = offline_population();
  core::ClientRegistry registry;
  pop.seed_registry(registry);
  std::uint64_t next_id = 0;

  // ── set-up: construct + the density-cache fill of a first window ─────
  Samples setup;
  std::unique_ptr<core::TommySequencer> seq;
  const int setups = args.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    const double t0 = process_cpu_now();
    seq = std::make_unique<core::TommySequencer>(registry);
    Rng warm_rng(args.seed + 5);
    std::uint64_t warm_id = 0;
    const auto warm = make_windows(pop, warm_rng, kOfflineGenRate, 1, 0.0, warm_id);
    (void)seq->sequence(warm[0]);
    setup.add(process_cpu_now() - t0);
  }

  std::uint64_t attempted = 0;

  // ── throughput: consecutive windows, back to back ────────────────────
  Rng fast_rng(args.seed * 17 + 3);
  Digest digest;
  Samples ras;
  std::uint64_t cyclic = 0;
  std::size_t windows_done = 0;
  std::vector<std::vector<core::Message>> first_windows;
  RateSum traced_rates;
  RateSum rates;
  double vclock = 1.0;
  const double budget = kOfflineFastShare * args.seconds;
  const double t_fast = now_s();
  for (int chunk = 0; now_s() - t_fast < budget || chunk < 4; ++chunk) {
    const bool traced_chunk = args.trace && chunk % 2 == 1;
    auto windows = make_windows(pop, fast_rng, kOfflineGenRate, 8, vclock, next_id);
    vclock = windows.back().back().arrival.seconds();
    const double c0 = thread_cpu_now();
    trace::enable(traced_chunk);
    std::vector<core::SequencerResult> outs;
    for (auto& w : windows) {
      trace::Span span("offline.sequence");
      outs.push_back(seq->sequence(w));
      cyclic += seq->last_diagnostics().tournament_transitive ? 0 : 1;
    }
    trace::enable(false);
    const double c1 = thread_cpu_now();
    (traced_chunk ? traced_rates : rates)
        .add(static_cast<double>(windows.size() * kWindow), c1 - c0);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      Digest scratch;
      ras.add(check_window(windows[i], outs[i],
                           windows_done < kDigestWindows ? digest : scratch, result));
      if (windows_done < kDigestWindows) first_windows.push_back(windows[i]);
      ++windows_done;
    }
    attempted += windows.size() * kWindow;
  }
  // Determinism: the first windows sequenced again must digest the same.
  {
    Digest again;
    RunResult scratch;
    for (const auto& w : first_windows) (void)check_window(w, seq->sequence(w), again, scratch);
    if (again.h != digest.h) {
      result.fail_messages("offline emission digest not reproduced",
                           first_windows.size() * kWindow);
    }
  }
  result.digest = hex(digest.h);

  // ── latency: windows close as paced arrivals fill them ───────────────
  // A window's latency is the time from its close (the due time of its
  // last arrival) until sequence() returns on it, on a single-server
  // queue: its service starts at its close or when the previous window
  // finished, whichever is later, and takes the thread CPU time
  // sequence() used. On a shared 4-vCPU x86-64 host, wake-up delays and
  // preemption by other tenants moved the wall-clock p90 of a 4 ms call
  // by 40% between runs.
  Samples latency[2];
  double cpu_us_per_msg = 0.0;
  double lag_p99_ms = 0.0;
  trace::enable(args.trace);
  const double rates_paced[2] = {args.rate_low, args.rate_high};
  for (int p = 0; p < 2; ++p) {
    const double rate = rates_paced[p];
    const auto count = std::max<std::size_t>(
        2, static_cast<std::size_t>(rate * kOfflinePacedShare[p] * args.seconds / kWindow));
    Rng paced_rng(args.seed * 37 + static_cast<std::uint64_t>(p));
    auto windows = make_windows(pop, paced_rng, rate, count, vclock, next_id);
    const double offset = now_s() + 0.01 - vclock;
    vclock = windows.back().back().arrival.seconds() + 1.0;
    Lateness lateness;
    const double cpu0 = thread_cpu_now();
    double busy_until = -std::numeric_limits<double>::infinity();
    for (auto& w : windows) {
      const double close = w.back().arrival.seconds() + offset;
      if (now_s() < close) sleep_until(close);
      lateness.on_sent(close, now_s());
      const double service0 = thread_cpu_now();
      core::SequencerResult out;
      {
        trace::Span span("offline.sequence");
        out = seq->sequence(w);
      }
      busy_until = std::max(busy_until, close) + thread_cpu_now() - service0;
      latency[p].add(busy_until - close);
      Digest scratch;
      ras.add(check_window(w, out, scratch, result));
      attempted += kWindow;
    }
    if (p == 1) {
      cpu_us_per_msg = (thread_cpu_now() - cpu0) * 1e6 /
                       static_cast<double>(windows.size() * kWindow);
      lag_p99_ms = lateness.p99_ms();
    }
  }
  trace::enable(false);
  result.attempted = attempted;

  auto& m = result.values;
  m["setup_s"] = setup.median();
  m["throughput_msg_s"] = rates.rate();
  m["lat_p50_ms.low"] = latency[0].percentile(50) * 1e3;
  m["lat_p99_ms.low"] = latency[0].percentile(99) * 1e3;
  m["lat_p50_ms.high"] = latency[1].percentile(50) * 1e3;
  m["lat_p99_ms.high"] = latency[1].percentile(99) * 1e3;
  m["lat_p90_ms.low"] = latency[0].percentile(90) * 1e3;
  m["lat_p90_ms.high"] = latency[1].percentile(90) * 1e3;
  m["samples.low"] = static_cast<double>(latency[0].count());
  m["samples.high"] = static_cast<double>(latency[1].count());
  m["cpu_us_per_msg"] = cpu_us_per_msg;
  m["rss_peak_mb"] = rss_peak_mb(::getpid());
  m["ras"] = ras.median();
  m["fair_share"] = 1.0;  // offline sequencing sees every message first

  m["offline.cyclic_share"] = static_cast<double>(cyclic) / std::max<double>(1.0, static_cast<double>(windows_done));
  m["stats.density_cache_pairs"] = static_cast<double>(seq->engine().cached_pairs());
  m["gen.lag_ms_p99"] = lag_p99_ms;
  m["gen.offered_msg_s"] = args.rate_high;
  if (args.trace) {
    const auto spans = trace::collect();
    const auto it = spans.find("offline.sequence");
    if (it != spans.end()) {
      m["offline.sequence_ms_per_call"] =
          it->second.total_s * 1e3 / std::max<double>(1.0, static_cast<double>(it->second.count));
    }
    // The graph and stats layers, replayed through their public functions
    // on the first windows: the tournament build (pairwise probabilities
    // included), the order extraction, and the probabilities alone.
    const core::PrecedingEngine& engine = seq->engine();
    double tournament_s = 0.0;
    double order_s = 0.0;
    double prob_s = 0.0;
    double pairs = 0.0;
    for (const auto& w : first_windows) {
      const double a = now_s();
      graph::Tournament t = graph::Tournament::from_pairwise(
          w.size(), [&](std::size_t i, std::size_t j) {
            return engine.preceding_probability(w[i], w[j]);
          });
      const double b = now_s();
      const auto order = graph::hamiltonian_path(t);
      const double c = now_s();
      double sink = 0.0;
      for (std::size_t i = 0; i < w.size(); ++i) {
        for (std::size_t j = i + 1; j < w.size(); ++j) sink += engine.preceding_probability(w[i], w[j]);
      }
      const double d = now_s();
      if (order.size() != w.size() || sink < 0) result.fail("graph replay inconsistent");
      tournament_s += b - a;
      order_s += c - b;
      prob_s += d - c;
      pairs += static_cast<double>(w.size() * (w.size() - 1) / 2);
    }
    const double n = std::max<double>(1.0, static_cast<double>(first_windows.size()));
    m["graph.tournament_ms"] = tournament_s * 1e3 / n;
    m["graph.order_ms"] = order_s * 1e3 / n;
    m["stats.pair_prob_ns"] = prob_s * 1e9 / std::max(1.0, pairs);
    m["trace.overhead_share"] = 1.0 - traced_rates.rate() / rates.rate();
    for (const auto& [name, s] : spans) result.self_s[name] = s.self_s;
  }
  return result;
}

}  // namespace pb
