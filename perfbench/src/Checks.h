//===- Checks.h - Correctness checks made apart from the program *- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own checks. None of them compares against a recording
/// of the program's output: each states a property the paper's method must
/// have, or recomputes a result with code that shares nothing with the
/// library but its trace decoder. SelfTest.cpp feeds each one a
/// deliberately wrong input to show it can fail.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/arrival/SystemClass.h"
#include "dyndist/objects/History.h"
#include "dyndist/sim/Simulator.h"
#include "dyndist/sim/Trace.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The paper's one-time-query matrix (the table in Solvability.h), written
/// out here rather than taken from the library's oracle.
enum class PaperVerdict { Solvable, SolvableIfQuiescent, Unsolvable };
PaperVerdict paperVerdict(const dyndist::SystemClass &C);

/// One E1 run as the checks see it.
struct E1Run {
  bool Admissible = false;
  bool QueryIssued = false;
  bool Valid = false;
  bool NoInvention = false;
  bool AggregateConsistent = false;
};

/// Why an E1 run counts as failed ("" when it does not). Every run must be
/// admissible, issue its query and keep the safety clauses; a run of a
/// solvable cell, or of a quiescent-solvable cell run in its quiescent
/// regime, must also meet the whole spec.
std::string e1RunFailure(const E1Run &Run, PaperVerdict Cell,
                         bool QuiescentRegime);

/// Per-kind event counts, indexed by dyndist::TraceKind.
using KindCounts = std::array<uint64_t, 7>;

/// The one-time query recomputed from an archive's records.
struct QueryRecount {
  bool Issued = false;
  bool Responded = false;
  dyndist::ProcessId Issuer = dyndist::InvalidProcess;
  dyndist::SimTime Issue = 0;
  dyndist::SimTime Response = 0;
  int64_t Reported = 0;  ///< The issuer's reported aggregate.
  uint64_t Required = 0; ///< Up throughout [Issue, Response].
  uint64_t Included = 0; ///< Contributors the issuer reported.
  uint64_t MissingRequired = 0; ///< Required but not included.
  uint64_t Invented = 0; ///< Included but never up in the window.
  int64_t IncludedSum = 0; ///< Sum of the included members' declared values.
  uint64_t Events = 0;
  KindCounts Kinds{};
};

/// Scans the columnar archive at \p Path and recomputes the query issued
/// by \p Issuer (InvalidProcess: by whoever issued first). Returns an
/// error message on a decode failure.
std::string recountQuery(const std::string &Path, dyndist::ProcessId Issuer,
                         QueryRecount &Out);

/// Compares a recount with the run it was archived from: the verdict must
/// be valid and agree with the recomputed required set, included set and
/// sum; the archive's message counts must equal the kernel's, and its
/// event count the in-memory trace's. Returns every disagreement.
std::vector<std::string> compareRecount(const dyndist::ExperimentResult &R,
                                        const QueryRecount &C);

/// Checks kernel-gossip-churn's membership counts: every initial process
/// and one replacement per churn instant joined, one process crashed per
/// churn instant. "" when they hold.
std::string checkChurnCounts(const KindCounts &Kinds, uint64_t Processes,
                             uint64_t Horizon, uint64_t ChurnEvery);

/// Counts the archive's events by kind with the benchmark's own scan.
std::string countArchiveKinds(const std::string &Path, KindCounts &Out,
                              uint64_t &Events);

/// Parses a `queryGroupBy(..., GroupField::Kind, ...)` table into per-kind
/// counts; "" on success.
std::string parseKindTable(const std::string &Table, KindCounts &Out);

/// Compares the message counts of \p Kinds with \p Stats; "" when equal.
std::string compareMessageCounts(const KindCounts &Kinds,
                                 const dyndist::SimStats &Stats);

/// Independent SWMR atomicity check for a history whose writer wrote
/// 1, 2, ..., W in order: no read returns a value whose write had not begun
/// by the read's end, none returns a value older than the last write
/// completed before it began, and no read returns an older value than a
/// read that finished before it started. "" when atomic.
std::string checkAtomicHistory(const dyndist::History &H);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
