#include "pb.hpp"

#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "metrics/ras.hpp"

namespace pb {

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_until(double t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_now() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_now() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::percentile(double q) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

std::uint64_t Ledger::submit(std::uint32_t client, double due) {
  PerClient& pc = per_client_[client];
  const std::uint64_t seq = pc.due.size();
  pc.due.push_back(due);
  pc.release_at.push_back(std::numeric_limits<double>::quiet_NaN());
  pc.rank.push_back(0);
  return make_id(client, seq_base_ + seq);
}

bool Ledger::release(std::uint64_t id, double t, std::uint64_t rank) {
  const std::uint32_t client = id_client(id);
  if (client >= per_client_.size()) {
    ++unknown_client_;
    return false;
  }
  PerClient& pc = per_client_[client];
  const std::uint64_t seq = id_seq(id) - seq_base_;
  if (id_seq(id) < seq_base_ || seq >= pc.due.size()) {
    ++pc.unknown;
    return false;
  }
  if (!std::isnan(pc.release_at[seq])) {
    ++pc.duplicates;
    return false;
  }
  pc.release_at[seq] = t;
  pc.rank[seq] = rank;
  ++pc.released;
  return true;
}

Verdict Ledger::verdict() const {
  Verdict v;
  v.unknown = unknown_client_;
  for (const PerClient& pc : per_client_) {
    v.submitted += pc.due.size();
    v.released += pc.released;
    v.missing += pc.due.size() - pc.released;
    v.duplicates += pc.duplicates;
    v.unknown += pc.unknown;
  }
  return v;
}

Samples Ledger::latencies(double from, double to) const {
  Samples out;
  for (const PerClient& pc : per_client_) {
    for (std::size_t i = 0; i < pc.due.size(); ++i) {
      if (pc.due[i] >= from && pc.due[i] < to && !std::isnan(pc.release_at[i])) {
        out.add(pc.release_at[i] - pc.due[i]);
      }
    }
  }
  return out;
}

std::uint64_t Ledger::released_between(double from, double to) const {
  std::uint64_t n = 0;
  for (const PerClient& pc : per_client_) {
    for (double t : pc.release_at) n += (t >= from && t < to) ? 1 : 0;
  }
  return n;
}

double Ledger::ras() const {
  std::vector<tommy::metrics::RankedMessage> messages;
  for (std::uint32_t c = 0; c < per_client_.size(); ++c) {
    const PerClient& pc = per_client_[c];
    for (std::size_t i = 0; i < pc.due.size(); ++i) {
      if (std::isnan(pc.release_at[i])) continue;
      messages.push_back({tommy::MessageId(make_id(c, seq_base_ + i)), tommy::ClientId(c),
                          tommy::TimePoint(pc.due[i]), pc.rank[i]});
    }
  }
  // rank_agreement requires distinct true times; nudge exact ties apart.
  std::sort(messages.begin(), messages.end(), [](const auto& a, const auto& b) {
    return a.true_time < b.true_time;
  });
  for (std::size_t i = 1; i < messages.size(); ++i) {
    const double prev = messages[i - 1].true_time.seconds();
    if (messages[i].true_time.seconds() <= prev) {
      messages[i].true_time =
          tommy::TimePoint(std::nextafter(prev, std::numeric_limits<double>::infinity()));
    }
  }
  return tommy::metrics::rank_agreement(messages).normalized();
}

std::vector<Window> quiet_windows(const std::vector<HostMark>& marks, double from,
                                  double to) {
  std::vector<std::pair<double, Window>> inside;
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    const HostMark& a = marks[i];
    const HostMark& b = marks[i + 1];
    if (a.t >= from && b.t <= to) {
      inside.push_back({(b.steal_s - a.steal_s) / (b.t - a.t),
                        {a.t, b.t, b.sut_cpu_s - a.sut_cpu_s}});
    }
  }
  std::stable_sort(inside.begin(), inside.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  inside.resize((inside.size() + 2) / 3);
  std::vector<Window> out;
  for (const auto& [steal, w] : inside) out.push_back(w);
  return out;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Fields 14 and 15 of /proc/.../stat (utime, stime), after the comm field.
double stat_cpu_s(const std::string& path) {
  const std::string s = read_file(path);
  const auto close = s.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream in(s.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace

double process_cpu_s(pid_t pid) {
  return stat_cpu_s("/proc/" + std::to_string(pid) + "/stat");
}

double thread_cpu_s(pid_t pid, pid_t tid) {
  return stat_cpu_s("/proc/" + std::to_string(pid) + "/task/" +
                    std::to_string(tid) + "/stat");
}

std::vector<pid_t> thread_ids(pid_t pid) {
  std::vector<pid_t> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
        out.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
      }
    }
    closedir(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double rss_peak_mb(pid_t pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double steal_s() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  unsigned long long field[8] = {};
  in >> cpu;
  for (auto& f : field) in >> f;
  return static_cast<double>(field[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace pb
