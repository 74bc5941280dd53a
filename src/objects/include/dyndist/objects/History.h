//===- dyndist/objects/History.h - Histories and checkers -------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invocation/response histories of shared-object executions and the
/// correctness checkers run over them. As with the message-passing half of
/// the library, algorithms are never trusted: thread harnesses record every
/// operation's invocation and response with a global order stamp, and the
/// checkers decide — purely from the history — whether the constructed
/// object behaved like a reliable atomic register (or a correct consensus
/// object).
///
/// Two register checkers are provided:
///  - checkSwmrAtomicity: O(n log n), for single-writer histories with
///    sequential writes of distinct values (the shape our stress tests
///    produce). Each read must satisfy three clauses: (i) the write it
///    returned began before the read ended; (ii) no later write completed
///    before the read began (no stale read); (iii) no read that ended
///    before it began returned a later write (no new/old inversion).
///    checkSwmrRegularity checks (i) and (ii) only;
///  - checkLinearizableRegister: an exponential Wing&Gong-style search for
///    arbitrary small register histories, used as ground truth in tests.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_OBJECTS_HISTORY_H
#define DYNDIST_OBJECTS_HISTORY_H

#include "dyndist/support/Result.h"

#include <cstdint>
#include <mutex>
#include <vector>

namespace dyndist {

/// Operation type of a register history.
enum class OpKind { Read, Write };

/// One completed-or-pending operation in a history.
struct Operation {
  uint64_t Id = 0;
  uint64_t Client = 0;
  OpKind Kind = OpKind::Read;
  int64_t Value = 0;    ///< Write argument, or read result when completed.
  uint64_t InvSeq = 0;  ///< Global stamp at invocation.
  uint64_t ResSeq = 0;  ///< Global stamp at response (when completed).
  bool Completed = false;
  bool Failed = false; ///< Operation returned ⊥.
};

/// An immutable snapshot of a recorded execution.
struct History {
  std::vector<Operation> Ops;

  /// Operations by a specific client, in invocation order.
  std::vector<Operation> byClient(uint64_t Client) const;

  /// True when every operation completed (checkers below require this).
  bool allComplete() const;
};

/// Thread-safe recorder the harness threads log through.
class HistoryRecorder {
public:
  /// Records an invocation; \p Value is the write argument (ignored for
  /// reads). Returns the operation id to pass to endOp().
  uint64_t beginOp(uint64_t Client, OpKind Kind, int64_t Value = 0);

  /// Records the response. \p Value is the read result (ignored for
  /// writes); \p Failed marks a ⊥ answer.
  void endOp(uint64_t OpId, int64_t Value = 0, bool Failed = false);

  /// Snapshot of everything recorded so far.
  History snapshot() const;

private:
  mutable std::mutex Mutex;
  std::vector<Operation> Ops;
  uint64_t NextStamp = 1;
};

/// Atomicity (linearizability) check specialized to single-writer
/// histories whose writes carry pairwise-distinct values and where the
/// register starts at \p Initial. O(n log n). All operations must be
/// complete and non-failed, and the writes must not overlap; a history
/// that breaks a shape assumption gets InvalidArgument, a non-atomic one
/// ProtocolViolation.
Status checkSwmrAtomicity(const History &H, int64_t Initial = 0);

/// General linearizability check for a register history (any number of
/// writers). Exponential search with memoization — intended for histories
/// of at most ~20 operations. All operations must be complete and
/// non-failed.
Status checkLinearizableRegister(const History &H, int64_t Initial = 0);

/// Regularity check, same history shape as checkSwmrAtomicity: every read
/// must return the value of the latest write completed before the read's
/// invocation, or of some write concurrent with the read. Weaker than
/// atomicity (new/old inversions between reads are allowed).
Status checkSwmrRegularity(const History &H, int64_t Initial = 0);

/// One participant's view of a consensus run.
struct ConsensusRecord {
  uint64_t Client = 0;
  int64_t Proposed = 0;
  bool Decided = false;
  int64_t Decision = 0;
};

/// Checks consensus safety over \p Records: agreement (all decided values
/// equal) and validity (every decided value was proposed by someone).
/// Participants with Decided=false are ignored by safety; use
/// \p RequireAllDecide to also enforce termination.
Status checkConsensusRun(const std::vector<ConsensusRecord> &Records,
                         bool RequireAllDecide = true);

} // namespace dyndist

#endif // DYNDIST_OBJECTS_HISTORY_H
