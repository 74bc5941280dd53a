//===- Assembly.h - A query run assembled step by step ----------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced runs need the phases of one query experiment apart — build
/// or reset the system, churn up to the query, the query wave, the
/// verdict — which runQueryExperiment() performs in one call. QueryRun
/// performs the same steps through the library's public classes
/// (DynamicSystem, the protocol factories, scheduleQueryStart, the
/// checkers), with a span around each. The workloads check that its
/// results equal runQueryExperiment()'s for the same configuration, so the
/// per-layer figures describe the computation the end-to-end run times.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ASSEMBLY_H
#define PERFBENCH_ASSEMBLY_H

#include "dyndist/aggregation/Experiment.h"

#include <memory>
#include <string>

namespace perfbench {

/// Outcome of one assembled run, in ExperimentResult's terms.
struct AssembledResult {
  dyndist::ExperimentResult R;
  dyndist::ProcessId Issuer = dyndist::InvalidProcess;
  uint64_t DiameterSamples = 0;
};

/// One system shell, kept across runs like a SimArena (reset, not rebuilt,
/// when the shard count allows it).
class QueryRun {
public:
  /// Builds or resets the system for \p Config (span
  /// "aggregation.arena_acquire").
  dyndist::DynamicSystem &acquire(const dyndist::ExperimentConfig &Config);

  /// Runs the acquired system: churn until the query instant (span
  /// "arrival.churn_phase"), the query to the horizon (span
  /// "aggregation.query_phase"), then the admissibility and query checkers
  /// (span "core.verdict"). KeepTrace moves the trace into the result.
  AssembledResult finish(const dyndist::ExperimentConfig &Config);

  AssembledResult run(const dyndist::ExperimentConfig &Config) {
    acquire(Config);
    return finish(Config);
  }

private:
  std::unique_ptr<dyndist::DynamicSystem> Sys;
  unsigned Shards = 0;
};

/// "" when \p A and \p B describe the same execution: equal kernel
/// counters (the cumulative body-pool counters excepted), verdicts and
/// admissibility.
std::string compareResults(const dyndist::ExperimentResult &A,
                           const dyndist::ExperimentResult &B);

} // namespace perfbench

#endif // PERFBENCH_ASSEMBLY_H
