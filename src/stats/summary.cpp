#include "stats/summary.hpp"

#include <cstring>
#include <sstream>

#include "common/check.hpp"
#include "stats/empirical.hpp"
#include "stats/gaussian.hpp"
#include "stats/grid_density.hpp"

namespace tommy::stats {

namespace {

constexpr std::uint8_t kTagGaussian = 1;
constexpr std::uint8_t kTagHistogram = 2;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

bool get_u32(const std::vector<std::uint8_t>& in, std::size_t& pos,
             std::uint32_t& v) {
  if (pos + 4 > in.size()) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[pos + static_cast<std::size_t>(i)]) << (8 * i);
  pos += 4;
  return true;
}

bool get_f64(const std::vector<std::uint8_t>& in, std::size_t& pos,
             double& v) {
  if (pos + 8 > in.size()) return false;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)]) << (8 * i);
  pos += 8;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

}  // namespace

DistributionSummary::DistributionSummary(GaussianParams params)
    : payload_(params) {
  TOMMY_EXPECTS(params.sigma > 0.0);
}

DistributionSummary::DistributionSummary(HistogramParams params)
    : payload_(std::move(params)) {
  const auto& h = std::get<HistogramParams>(payload_);
  TOMMY_EXPECTS(h.lo < h.hi);
  TOMMY_EXPECTS(!h.bin_masses.empty());
}

DistributionSummary DistributionSummary::describe(const Distribution& dist,
                                                  std::size_t bins) {
  if (dist.is_gaussian()) {
    return DistributionSummary(GaussianParams{dist.mean(), dist.stddev()});
  }
  const Support sup = dist.effective_support();
  const GridDensity grid =
      GridDensity::from_distribution_on(dist, sup.lo, sup.hi, bins + 1);
  std::vector<double> masses(bins);
  for (std::size_t k = 0; k < bins; ++k) {
    const double a = grid.lo() + static_cast<double>(k) * grid.dx();
    masses[k] = std::max(grid.cdf(a + grid.dx()) - grid.cdf(a), 0.0);
  }
  return DistributionSummary(HistogramParams{sup.lo, grid.hi(), std::move(masses)});
}

bool DistributionSummary::is_gaussian() const {
  return std::holds_alternative<GaussianParams>(payload_);
}

const GaussianParams* DistributionSummary::gaussian() const {
  return std::get_if<GaussianParams>(&payload_);
}

const HistogramParams* DistributionSummary::histogram() const {
  return std::get_if<HistogramParams>(&payload_);
}

DistributionPtr DistributionSummary::materialize() const {
  if (const auto* g = gaussian()) {
    return std::make_unique<Gaussian>(g->mu, g->sigma);
  }
  const auto* h = histogram();
  TOMMY_ASSERT(h != nullptr);
  return std::make_unique<Empirical>(h->lo, h->hi, h->bin_masses);
}

std::vector<std::uint8_t> DistributionSummary::serialize() const {
  std::vector<std::uint8_t> out;
  if (const auto* g = gaussian()) {
    out.reserve(1 + 16);
    out.push_back(kTagGaussian);
    put_f64(out, g->mu);
    put_f64(out, g->sigma);
    return out;
  }
  const auto* h = histogram();
  TOMMY_ASSERT(h != nullptr);
  out.reserve(1 + 16 + 4 + 8 * h->bin_masses.size());
  out.push_back(kTagHistogram);
  put_f64(out, h->lo);
  put_f64(out, h->hi);
  put_u32(out, static_cast<std::uint32_t>(h->bin_masses.size()));
  for (double m : h->bin_masses) put_f64(out, m);
  return out;
}

std::optional<DistributionSummary> DistributionSummary::deserialize(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return std::nullopt;
  std::size_t pos = 1;
  switch (bytes[0]) {
    case kTagGaussian: {
      GaussianParams g;
      if (!get_f64(bytes, pos, g.mu)) return std::nullopt;
      if (!get_f64(bytes, pos, g.sigma)) return std::nullopt;
      if (pos != bytes.size()) return std::nullopt;
      if (!(g.sigma > 0.0)) return std::nullopt;
      return DistributionSummary(g);
    }
    case kTagHistogram: {
      HistogramParams h;
      std::uint32_t count = 0;
      if (!get_f64(bytes, pos, h.lo)) return std::nullopt;
      if (!get_f64(bytes, pos, h.hi)) return std::nullopt;
      if (!get_u32(bytes, pos, count)) return std::nullopt;
      if (count == 0 || !(h.lo < h.hi)) return std::nullopt;
      // Each bin is one f64: reject a count the payload cannot hold
      // before sizing anything by it.
      if (count > (bytes.size() - pos) / sizeof(double)) return std::nullopt;
      h.bin_masses.resize(count);
      for (auto& m : h.bin_masses) {
        if (!get_f64(bytes, pos, m)) return std::nullopt;
        if (m < 0.0) return std::nullopt;
      }
      if (pos != bytes.size()) return std::nullopt;
      double total = 0.0;
      for (double m : h.bin_masses) total += m;
      if (!(total > 0.0)) return std::nullopt;
      return DistributionSummary(std::move(h));
    }
    default:
      return std::nullopt;
  }
}

std::size_t DistributionSummary::wire_size() const {
  if (is_gaussian()) return 1 + 16;
  return 1 + 16 + 4 + 8 * histogram()->bin_masses.size();
}

std::string DistributionSummary::describe_text() const {
  std::ostringstream os;
  if (const auto* g = gaussian()) {
    os << "Summary[Gaussian mu=" << g->mu << " sigma=" << g->sigma << "]";
  } else {
    const auto* h = histogram();
    os << "Summary[Histogram lo=" << h->lo << " hi=" << h->hi
       << " bins=" << h->bin_masses.size() << "]";
  }
  return os.str();
}

}  // namespace tommy::stats
