//===- History.cpp - Histories and checkers ------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/objects/History.h"

#include "dyndist/support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

using namespace dyndist;

std::vector<Operation> History::byClient(uint64_t Client) const {
  std::vector<Operation> Out;
  for (const Operation &O : Ops)
    if (O.Client == Client)
      Out.push_back(O);
  std::sort(Out.begin(), Out.end(),
            [](const Operation &A, const Operation &B) {
              return A.InvSeq < B.InvSeq;
            });
  return Out;
}

bool History::allComplete() const {
  for (const Operation &O : Ops)
    if (!O.Completed)
      return false;
  return true;
}

uint64_t HistoryRecorder::beginOp(uint64_t Client, OpKind Kind,
                                  int64_t Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Operation O;
  O.Id = Ops.size();
  O.Client = Client;
  O.Kind = Kind;
  O.Value = Value;
  O.InvSeq = NextStamp++;
  Ops.push_back(O);
  return O.Id;
}

void HistoryRecorder::endOp(uint64_t OpId, int64_t Value, bool Failed) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(OpId < Ops.size() && "unknown operation id");
  Operation &O = Ops[OpId];
  assert(!O.Completed && "operation completed twice");
  O.Completed = true;
  O.Failed = Failed;
  if (O.Kind == OpKind::Read)
    O.Value = Value;
  O.ResSeq = NextStamp++;
}

History HistoryRecorder::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  History H;
  H.Ops = Ops;
  return H;
}

namespace {

/// A read reduced to what the inversion sweep needs: its stamps and the
/// index of the write it returned.
struct ReadStamp {
  uint64_t InvSeq;
  uint64_t ResSeq;
  size_t Write;
};

} // namespace

/// Collects the writes of \p H, sorted by invocation: write k (1-based) is
/// Writes[k-1], and index 0 is the virtual initial write of \p Initial.
/// \p IndexOf holds every (value, write index) pair sorted by value.
/// Returns an error when the shape assumptions fail.
static Status
splitSwmrHistory(const History &H, int64_t Initial,
                 std::vector<const Operation *> &Writes,
                 std::vector<std::pair<int64_t, size_t>> &IndexOf) {
  if (!H.allComplete())
    return Error(Error::Code::InvalidArgument,
                 "checker requires a complete history");
  for (const Operation &O : H.Ops) {
    if (O.Failed)
      return Error(Error::Code::InvalidArgument,
                   "checker requires non-failed operations");
    if (O.ResSeq < O.InvSeq)
      return Error(Error::Code::InvalidArgument,
                   "operation responded before it was invoked");
    if (O.Kind == OpKind::Write)
      Writes.push_back(&O);
  }
  if (std::any_of(Writes.begin(), Writes.end(), [&](const Operation *W) {
        return W->Client != Writes.front()->Client;
      }))
    return Error(Error::Code::InvalidArgument,
                 "single-writer checker saw multiple writer clients");
  std::sort(Writes.begin(), Writes.end(),
            [](const Operation *A, const Operation *B) {
              return A->InvSeq < B->InvSeq;
            });
  // Sequential writes make ResSeq increase with the index, so the writes
  // completed before any stamp form a prefix.
  for (size_t K = 1; K < Writes.size(); ++K)
    if (Writes[K]->InvSeq < Writes[K - 1]->ResSeq)
      return Error(Error::Code::InvalidArgument,
                   format("writes overlap: write #%zu began before write "
                          "#%zu completed",
                          K + 1, K));

  IndexOf.reserve(Writes.size() + 1);
  IndexOf.emplace_back(Initial, 0);
  for (size_t K = 0; K != Writes.size(); ++K)
    IndexOf.emplace_back(Writes[K]->Value, K + 1);
  std::sort(IndexOf.begin(), IndexOf.end());
  auto Repeat = std::adjacent_find(
      IndexOf.begin(), IndexOf.end(),
      [](const auto &A, const auto &B) { return A.first == B.first; });
  if (Repeat != IndexOf.end())
    return Error(Error::Code::InvalidArgument,
                 format("written values must be distinct; %lld repeats",
                        static_cast<long long>(Repeat->first)));
  return Status::success();
}

/// Shared core of the regularity and atomicity checks; \p CheckInversions
/// adds the reads-don't-go-backwards clause that upgrades regular to
/// atomic. O(n log n): two sorts, a binary search per read and one sweep.
static Status checkSwmrCore(const History &H, int64_t Initial,
                            bool CheckInversions) {
  std::vector<const Operation *> Writes;
  std::vector<std::pair<int64_t, size_t>> IndexOf;
  if (Status S = splitSwmrHistory(H, Initial, Writes, IndexOf); !S)
    return S;

  std::vector<ReadStamp> ByInv;
  ByInv.reserve(H.Ops.size() - Writes.size());
  for (const Operation &Rd : H.Ops) {
    if (Rd.Kind != OpKind::Read)
      continue;
    auto It = std::lower_bound(IndexOf.begin(), IndexOf.end(),
                               std::pair<int64_t, size_t>(Rd.Value, 0));
    if (It == IndexOf.end() || It->first != Rd.Value)
      return Error(Error::Code::ProtocolViolation,
                   format("read by client %llu returned %lld, which was "
                          "never written",
                          static_cast<unsigned long long>(Rd.Client),
                          static_cast<long long>(Rd.Value)));
    size_t I = It->second;
    // (i) The write must have started before the read ended.
    if (I != 0 && Writes[I - 1]->InvSeq > Rd.ResSeq)
      return Error(Error::Code::ProtocolViolation,
                   format("read returned %lld before that write began",
                          static_cast<long long>(Rd.Value)));
    // (ii) The value must not predate the last write completed before the
    // read began: the completed writes are a prefix of length Floor.
    size_t Floor = std::partition_point(Writes.begin(), Writes.end(),
                                        [&Rd](const Operation *W) {
                                          return W->ResSeq < Rd.InvSeq;
                                        }) -
                   Writes.begin();
    if (I < Floor)
      return Error(
          Error::Code::ProtocolViolation,
          format("stale read: returned write #%zu but write #%zu had "
                 "completed before the read began",
                 I, Floor));
    ByInv.push_back({Rd.InvSeq, Rd.ResSeq, I});
  }

  if (!CheckInversions)
    return Status::success();

  // (iii) No new/old inversion between real-time-ordered reads: sweep the
  // reads by invocation, tracking the newest write returned by any read
  // that responded before the current one began.
  std::vector<ReadStamp> ByRes = ByInv;
  std::sort(ByInv.begin(), ByInv.end(),
            [](const ReadStamp &A, const ReadStamp &B) {
              return A.InvSeq < B.InvSeq;
            });
  std::sort(ByRes.begin(), ByRes.end(),
            [](const ReadStamp &A, const ReadStamp &B) {
              return A.ResSeq < B.ResSeq;
            });
  size_t Done = 0, Newest = 0;
  for (const ReadStamp &Rd : ByInv) {
    for (; Done != ByRes.size() && ByRes[Done].ResSeq < Rd.InvSeq; ++Done)
      Newest = std::max(Newest, ByRes[Done].Write);
    if (Rd.Write < Newest)
      return Error(
          Error::Code::ProtocolViolation,
          format("new/old inversion: a read of write #%zu preceded a "
                 "read of write #%zu",
                 Newest, Rd.Write));
  }
  return Status::success();
}

Status dyndist::checkSwmrAtomicity(const History &H, int64_t Initial) {
  return checkSwmrCore(H, Initial, /*CheckInversions=*/true);
}

Status dyndist::checkSwmrRegularity(const History &H, int64_t Initial) {
  return checkSwmrCore(H, Initial, /*CheckInversions=*/false);
}

namespace {

/// Backtracking linearizability search (Wing & Gong) over register
/// histories, with memoization of failed (linearized-set, value) states.
class LinSearch {
public:
  LinSearch(const std::vector<Operation> &Ops, int64_t Initial)
      : Ops(Ops), Initial(Initial) {}

  bool run() { return search(0, Initial); }

private:
  bool search(uint64_t Mask, int64_t Value) {
    if (Mask == (1ULL << Ops.size()) - 1)
      return true;
    if (!FailedStates.insert({Mask, Value}).second)
      return false;
    // Minimal-op rule: an op is schedulable next iff no unlinearized op
    // responded before it was invoked.
    uint64_t MinRes = ~0ULL;
    for (size_t I = 0; I != Ops.size(); ++I)
      if (!(Mask & (1ULL << I)))
        MinRes = std::min(MinRes, Ops[I].ResSeq);
    for (size_t I = 0; I != Ops.size(); ++I) {
      if (Mask & (1ULL << I))
        continue;
      const Operation &O = Ops[I];
      if (O.InvSeq > MinRes)
        continue;
      if (O.Kind == OpKind::Read) {
        if (O.Value != Value)
          continue;
        if (search(Mask | (1ULL << I), Value))
          return true;
      } else {
        if (search(Mask | (1ULL << I), O.Value))
          return true;
      }
    }
    return false;
  }

  const std::vector<Operation> &Ops;
  int64_t Initial;
  std::set<std::pair<uint64_t, int64_t>> FailedStates;
};

} // namespace

Status dyndist::checkLinearizableRegister(const History &H, int64_t Initial) {
  if (!H.allComplete())
    return Error(Error::Code::InvalidArgument,
                 "checker requires a complete history");
  for (const Operation &O : H.Ops)
    if (O.Failed)
      return Error(Error::Code::InvalidArgument,
                   "checker requires non-failed operations");
  if (H.Ops.size() > 24)
    return Error(Error::Code::Unsupported,
                 "general linearizability search capped at 24 operations");
  LinSearch Search(H.Ops, Initial);
  if (!Search.run())
    return Error(Error::Code::ProtocolViolation,
                 "history admits no linearization");
  return Status::success();
}

Status
dyndist::checkConsensusRun(const std::vector<ConsensusRecord> &Records,
                           bool RequireAllDecide) {
  std::set<int64_t> Proposed;
  for (const ConsensusRecord &R : Records)
    Proposed.insert(R.Proposed);

  std::optional<int64_t> Agreed;
  for (const ConsensusRecord &R : Records) {
    if (!R.Decided) {
      if (RequireAllDecide)
        return Error(Error::Code::ProtocolViolation,
                     format("client %llu never decided",
                            static_cast<unsigned long long>(R.Client)));
      continue;
    }
    if (!Proposed.count(R.Decision))
      return Error(Error::Code::ProtocolViolation,
                   format("validity violated: %lld was never proposed",
                          static_cast<long long>(R.Decision)));
    if (!Agreed) {
      Agreed = R.Decision;
    } else if (*Agreed != R.Decision) {
      return Error(Error::Code::ProtocolViolation,
                   format("agreement violated: saw both %lld and %lld",
                          static_cast<long long>(*Agreed),
                          static_cast<long long>(R.Decision)));
    }
  }
  return Status::success();
}
