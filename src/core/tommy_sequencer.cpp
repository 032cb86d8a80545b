#include "core/tommy_sequencer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/digraph.hpp"
#include "graph/feedback_arc.hpp"
#include "graph/ordering.hpp"
#include "graph/tournament.hpp"

namespace tommy::core {

namespace {

/// prime() also materializes safe-emission/frontier offsets keyed on a
/// p_safe; offline batching never reads them, so any valid value does.
constexpr double kOfflinePrimePSafe = 0.999;

}  // namespace

TommySequencer::TommySequencer(const ClientRegistry& registry,
                               TommyConfig config)
    : registry_(registry),
      config_(config),
      engine_(registry, config.preceding),
      stochastic_rng_(config.stochastic_seed) {
  TOMMY_EXPECTS(config.threshold > 0.5 && config.threshold < 1.0);
}

PairConfidenceFn TommySequencer::boundary_predicate() const {
  // The threshold decision is one subtraction against the primed per-pair
  // critical gap, in corrected-stamp space (see preceding.hpp).
  return [this](const Message& a, const Message& b) {
    const std::uint32_t ci = registry_.index_of(a.client);
    const std::uint32_t cj = registry_.index_of(b.client);
    return engine_.fast_confidently_preceding(
        ci, engine_.fast_corrected(ci, a.stamp), cj,
        engine_.fast_corrected(cj, b.stamp));
  };
}

SequencerResult TommySequencer::sequence(std::vector<Message> messages) {
  diagnostics_ = TommyDiagnostics{};
  if (messages.empty()) return {};
  // Idempotent when already primed for this threshold and registry
  // generation; re-announces between sequence() calls re-prime here.
  engine_.prime(config_.threshold, kOfflinePrimePSafe);

  const bool fast = config_.gaussian_fast_path && registry_.all_gaussian() &&
                    !config_.preceding.force_numeric;
  if (fast) return sequence_fast_gaussian(std::move(messages));
  return sequence_tournament(std::move(messages));
}

SequencerResult TommySequencer::sequence_fast_gaussian(
    std::vector<Message> messages) {
  diagnostics_.used_gaussian_fast_path = true;
  diagnostics_.tournament_transitive = true;

  // Appendix A: for Gaussians, i precedes j with p > 1/2 iff
  // T_i + μ_i < T_j + μ_j, so the corrected-mean sort IS the unique
  // topological order of the (transitive) tournament.
  std::sort(messages.begin(), messages.end(),
            [this](const Message& a, const Message& b) {
              const TimePoint ca = engine_.corrected_stamp(a);
              const TimePoint cb = engine_.corrected_stamp(b);
              if (ca != cb) return ca < cb;
              return a.id < b.id;  // deterministic tie-break
            });

  SequencerResult result;
  result.batches = batch_by_confidence(std::move(messages),
                                       boundary_predicate(),
                                       config_.batch_rule);
  return result;
}

SequencerResult TommySequencer::sequence_tournament(
    std::vector<Message> messages) {
  const std::size_t n = messages.size();
  TOMMY_EXPECTS(n <= config_.max_tournament_nodes);

  const graph::Tournament tournament = graph::Tournament::from_pairwise(
      n, [this, &messages](std::size_t i, std::size_t j) {
        return engine_.preceding_probability(messages[i], messages[j]);
      });
  if (config_.analyze_transitivity) {
    diagnostics_.transitivity = graph::analyze_transitivity(tournament);
  }

  const PairConfidenceFn confident = boundary_predicate();

  SequencerResult result;
  if (tournament.is_transitive()) {
    diagnostics_.tournament_transitive = true;
    const std::vector<std::size_t> order = graph::hamiltonian_path(tournament);
    std::vector<Message> ordered;
    ordered.reserve(n);
    for (std::size_t idx : order) ordered.push_back(messages[idx]);
    result.batches = batch_by_confidence(std::move(ordered), confident,
                                         config_.batch_rule);
    return result;
  }

  diagnostics_.tournament_transitive = false;

  if (config_.cycle_policy == CyclePolicy::kCondense) {
    // Members of a cycle cannot be ordered with confidence: group each SCC
    // and order the condensation DAG topologically.
    graph::Digraph digraph(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && tournament.edge(i, j)) {
          digraph.add_edge(i, j, tournament.edge_weight(i, j));
        }
      }
    }
    const graph::SccResult scc = graph::strongly_connected_components(digraph);
    diagnostics_.scc_count = scc.components.size();
    const graph::Digraph dag = graph::condense(digraph, scc);
    const auto topo = dag.topological_sort();
    TOMMY_ASSERT(topo.has_value());  // condensation is acyclic by construction

    std::vector<std::vector<Message>> groups;
    groups.reserve(scc.components.size());
    for (std::size_t component : *topo) {
      std::vector<Message> group;
      group.reserve(scc.components[component].size());
      for (std::size_t idx : scc.components[component]) {
        group.push_back(messages[idx]);
      }
      groups.push_back(std::move(group));
    }
    result.batches = batch_groups_by_confidence(std::move(groups), confident);
    return result;
  }

  // Feedback-arc-set policies: obtain a full linear order, count what was
  // sacrificed, then batch as usual.
  graph::FasOrdering fas;
  switch (config_.cycle_policy) {
    case CyclePolicy::kGreedyFas:
      fas = graph::greedy_fas(tournament);
      break;
    case CyclePolicy::kStochasticFas:
      fas = graph::stochastic_fas(tournament, stochastic_rng_);
      break;
    case CyclePolicy::kExactFas:
      fas = graph::exact_min_fas(tournament);
      break;
    case CyclePolicy::kCondense:
      TOMMY_ASSERT(false);  // handled above
  }
  diagnostics_.fas_removed_edges = fas.removed_count;
  diagnostics_.fas_removed_weight = fas.removed_weight;

  std::vector<Message> ordered;
  ordered.reserve(n);
  for (std::size_t idx : fas.order) ordered.push_back(messages[idx]);
  result.batches = batch_by_confidence(std::move(ordered), confident,
                                       config_.batch_rule);
  return result;
}

}  // namespace tommy::core
