//===- Checks.cpp - Correctness checks made apart from the program --------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "dyndist/aggregation/Protocol.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/sim/TraceColumnar.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

using namespace dyndist;
using namespace perfbench;

namespace {

constexpr SimTime Never = std::numeric_limits<SimTime>::max();
const char *const KindNames[7] = {"join",    "leave", "crash",  "send",
                                  "deliver", "drop",  "observe"};

std::string str(uint64_t V) { return std::to_string(V); }

/// Opens \p Path and visits every event in archive order.
template <typename Fn> std::string scanArchive(const std::string &Path, Fn F) {
  auto Reader = ColumnarTraceReader::open(Path);
  if (!Reader)
    return "cannot open archive " + Path + ": " + Reader.error().str();
  for (size_t I = 0; I != (*Reader)->chunkCount(); ++I) {
    Status S = (*Reader)->scanChunk(I, [&](const TraceEventView &V) { F(V); });
    if (!S)
      return "archive chunk " + str(I) + ": " + S.error().str();
  }
  return "";
}

} // namespace

PaperVerdict perfbench::paperVerdict(const SystemClass &C) {
  // Rows: arrival axis; columns: diameter knowledge. A disclosed D always
  // suffices (flood with TTL D). M^n solves the other two columns only in
  // runs that quiesce (echo). A known concurrency bound b caps any
  // connected snapshot's diameter at b-1, so it solves them too. An
  // unknown b, and M^inf, leave them unsolvable.
  if (C.Knowledge.Diameter == DiameterKnowledge::KnownBound)
    return PaperVerdict::Solvable;
  switch (C.Arrival.Kind) {
  case ArrivalKind::FiniteArrival:
    return PaperVerdict::SolvableIfQuiescent;
  case ArrivalKind::BoundedConcurrency:
    return C.Arrival.BoundKnown ? PaperVerdict::Solvable
                                : PaperVerdict::Unsolvable;
  case ArrivalKind::InfiniteArrival:
    return PaperVerdict::Unsolvable;
  }
  return PaperVerdict::Unsolvable;
}

std::string perfbench::e1RunFailure(const E1Run &Run, PaperVerdict Cell,
                                    bool QuiescentRegime) {
  if (!Run.Admissible)
    return "run is not class-admissible";
  if (!Run.QueryIssued)
    return "query never issued";
  if (!Run.NoInvention)
    return "safety: a contributor was invented";
  if (!Run.AggregateConsistent)
    return "safety: reported aggregate differs from its contributors' sum";
  bool MustMeetSpec =
      Cell == PaperVerdict::Solvable ||
      (Cell == PaperVerdict::SolvableIfQuiescent && QuiescentRegime);
  if (MustMeetSpec && !Run.Valid)
    return "solvable cell missed the spec";
  return "";
}

std::string perfbench::recountQuery(const std::string &Path, ProcessId Issuer,
                                    QueryRecount &Out) {
  Out = QueryRecount();
  // Presence per pid (pids are dense in spawn order): first join, first
  // departure after it.
  std::vector<SimTime> JoinAt, EndAt;
  std::vector<int64_t> Declared;
  std::vector<char> HasDeclared;
  std::vector<std::pair<SimTime, ProcessId>> Includes;
  bool Bad = false;
  auto grow = [&](ProcessId P) {
    if (P > (1u << 26)) {
      Bad = true;
      return false;
    }
    if (P >= JoinAt.size()) {
      JoinAt.resize(P + 1, Never);
      EndAt.resize(P + 1, Never);
      Declared.resize(P + 1, 0);
      HasDeclared.resize(P + 1, 0);
    }
    return true;
  };
  std::string Err = scanArchive(Path, [&](const TraceEventView &V) {
    ++Out.Events;
    ++Out.Kinds[static_cast<size_t>(V.Kind)];
    switch (V.Kind) {
    case TraceKind::Join:
      if (grow(V.Subject) && JoinAt[V.Subject] == Never)
        JoinAt[V.Subject] = V.Time;
      break;
    case TraceKind::Leave:
    case TraceKind::Crash:
      if (grow(V.Subject) && EndAt[V.Subject] == Never)
        EndAt[V.Subject] = V.Time;
      break;
    case TraceKind::Observe:
      if (V.Key == OtqValueKey) {
        if (grow(V.Subject) && !HasDeclared[V.Subject]) {
          HasDeclared[V.Subject] = 1;
          Declared[V.Subject] = V.Value;
        }
      } else if (V.Key == OtqIssueKey && !Out.Issued &&
                 (Issuer == InvalidProcess || V.Subject == Issuer)) {
        Issuer = V.Subject;
        Out.Issuer = Issuer;
        Out.Issued = true;
        Out.Issue = V.Time;
      } else if (Out.Issued && V.Subject == Issuer) {
        if (V.Key == OtqResultKey && !Out.Responded) {
          Out.Responded = true;
          Out.Response = V.Time;
          Out.Reported = V.Value;
        } else if (V.Key == OtqIncludeKey) {
          Includes.push_back({V.Time, static_cast<ProcessId>(V.Value)});
        }
      }
      break;
    default:
      break;
    }
  });
  if (!Err.empty())
    return Err;
  if (Bad)
    return "archive names a process id beyond 2^26";
  if (!Out.Issued || !Out.Responded)
    return "";

  std::vector<char> IsIncluded(JoinAt.size(), 0);
  for (auto [T, P] : Includes) {
    if (T < Out.Issue || T > Out.Response)
      continue;
    if (P >= JoinAt.size()) {
      ++Out.Invented; // Never joined at all.
      continue;
    }
    if (IsIncluded[P])
      continue;
    IsIncluded[P] = 1;
    ++Out.Included;
    Out.IncludedSum += Declared[P];
    bool Present = JoinAt[P] <= Out.Response &&
                   (EndAt[P] == Never || EndAt[P] > Out.Issue);
    if (!Present)
      ++Out.Invented;
  }
  for (ProcessId P = 0; P != JoinAt.size(); ++P) {
    bool Required = JoinAt[P] <= Out.Issue &&
                    (EndAt[P] == Never || EndAt[P] > Out.Response);
    if (!Required)
      continue;
    ++Out.Required;
    if (!IsIncluded[P])
      ++Out.MissingRequired;
  }
  return "";
}

std::vector<std::string>
perfbench::compareRecount(const ExperimentResult &R, const QueryRecount &C) {
  std::vector<std::string> Out;
  const QueryVerdict &V = R.Verdict;
  if (!R.ClassAdmissible)
    Out.push_back("run is not class-admissible: " + R.AdmissibilityError);
  if (!V.valid())
    Out.push_back("verdict is not valid: " + V.str());
  if (!C.Issued || !C.Responded)
    Out.push_back("archive holds no issued and answered query");
  else if (C.Response != V.ResponseTime)
    Out.push_back("archive response time differs from the verdict's");
  if (C.Required != V.RequiredCount || C.MissingRequired != 0)
    Out.push_back("recomputed required set: " + str(C.Required) +
                  " members, " + str(C.MissingRequired) +
                  " missing; verdict says " + str(V.RequiredCount));
  if (C.Included != V.IncludedCount || C.Invented != 0)
    Out.push_back("recomputed included set: " + str(C.Included) +
                  " members, " + str(C.Invented) + " invented; verdict says " +
                  str(V.IncludedCount));
  if (C.IncludedSum != C.Reported || C.Reported != V.Aggregate)
    Out.push_back("recomputed sum " + std::to_string(C.IncludedSum) +
                  ", archive reports " + std::to_string(C.Reported) +
                  ", verdict " + std::to_string(V.Aggregate));
  if (std::string E = compareMessageCounts(C.Kinds, R.Stats); !E.empty())
    Out.push_back(E);
  if (!R.RecordedTrace)
    Out.push_back("no trace recorded");
  else if (C.Events != R.RecordedTrace->records().size())
    Out.push_back("archive holds " + str(C.Events) + " events, trace " +
                  str(R.RecordedTrace->records().size()));
  return Out;
}

std::string perfbench::checkChurnCounts(const KindCounts &Kinds,
                                        uint64_t Processes, uint64_t Horizon,
                                        uint64_t ChurnEvery) {
  const uint64_t Churns = ChurnEvery ? Horizon / ChurnEvery : 0;
  const uint64_t Joins = Kinds[size_t(TraceKind::Join)];
  const uint64_t Crashes = Kinds[size_t(TraceKind::Crash)];
  if (Joins != Processes + Churns)
    return "joins " + str(Joins) + ", expected " + str(Processes + Churns);
  if (Crashes != Churns)
    return "crashes " + str(Crashes) + ", expected " + str(Churns);
  return "";
}

std::string perfbench::countArchiveKinds(const std::string &Path,
                                         KindCounts &Out, uint64_t &Events) {
  Out = KindCounts{};
  Events = 0;
  return scanArchive(Path, [&](const TraceEventView &V) {
    ++Events;
    ++Out[static_cast<size_t>(V.Kind)];
  });
}

std::string perfbench::parseKindTable(const std::string &Table,
                                      KindCounts &Out) {
  Out = KindCounts{};
  std::istringstream In(Table);
  std::string Line;
  if (!std::getline(In, Line) || Line.rfind("kind\tcount", 0) != 0)
    return "group-by table has no kind/count header";
  while (std::getline(In, Line)) {
    size_t Tab = Line.find('\t');
    if (Tab == std::string::npos)
      return "malformed group-by row: " + Line;
    std::string Name = Line.substr(0, Tab);
    size_t K = 0;
    while (K != 7 && Name != KindNames[K])
      ++K;
    if (K == 7)
      return "unknown kind in group-by row: " + Line;
    Out[K] = std::stoull(Line.substr(Tab + 1));
  }
  return "";
}

std::string perfbench::compareMessageCounts(const KindCounts &Kinds,
                                            const SimStats &Stats) {
  auto Cmp = [](const char *What, uint64_t Archive, uint64_t Kernel) {
    if (Archive == Kernel)
      return std::string();
    return std::string(What) + ": archive " + str(Archive) + " vs kernel " +
           str(Kernel);
  };
  std::string E = Cmp("sends", Kinds[size_t(TraceKind::Send)],
                      Stats.MessagesSent);
  if (E.empty())
    E = Cmp("deliveries", Kinds[size_t(TraceKind::Deliver)],
            Stats.MessagesDelivered);
  if (E.empty())
    E = Cmp("drops", Kinds[size_t(TraceKind::Drop)], Stats.MessagesDropped);
  return E;
}

std::string perfbench::checkAtomicHistory(const History &H) {
  std::vector<const Operation *> Writes, Reads;
  for (const Operation &Op : H.Ops) {
    if (!Op.Completed || Op.Failed)
      return "operation " + str(Op.Id) + " did not complete";
    (Op.Kind == OpKind::Write ? Writes : Reads).push_back(&Op);
  }
  std::sort(Writes.begin(), Writes.end(),
            [](auto *A, auto *B) { return A->InvSeq < B->InvSeq; });
  for (size_t I = 0; I != Writes.size(); ++I) {
    if (Writes[I]->Value != static_cast<int64_t>(I + 1))
      return "write #" + str(I + 1) + " wrote " +
             std::to_string(Writes[I]->Value);
    if (I && Writes[I]->InvSeq < Writes[I - 1]->ResSeq)
      return "writes overlap (more than one writer)";
  }
  const int64_t W = static_cast<int64_t>(Writes.size());
  for (const Operation *R : Reads) {
    int64_t V = R->Value;
    if (V < 0 || V > W)
      return "read returned " + std::to_string(V) + ", never written";
    if (V > 0 && Writes[V - 1]->InvSeq > R->ResSeq)
      return "read returned write #" + std::to_string(V) +
             " before that write began";
    // Writes complete in order, so the completed ones form a prefix.
    int64_t Floor = std::partition_point(Writes.begin(), Writes.end(),
                                         [R](const Operation *Wr) {
                                           return Wr->ResSeq < R->InvSeq;
                                         }) -
                    Writes.begin();
    if (V < Floor)
      return "stale read: returned write #" + std::to_string(V) +
             " after write #" + std::to_string(Floor) + " had completed";
  }
  // Inversions: sweep reads by invocation; every read that responded
  // before the current one began must not have returned a newer value.
  std::vector<const Operation *> ByRes = Reads;
  std::sort(Reads.begin(), Reads.end(),
            [](auto *A, auto *B) { return A->InvSeq < B->InvSeq; });
  std::sort(ByRes.begin(), ByRes.end(),
            [](auto *A, auto *B) { return A->ResSeq < B->ResSeq; });
  size_t Done = 0;
  int64_t MaxDone = 0;
  for (const Operation *R : Reads) {
    while (Done != ByRes.size() && ByRes[Done]->ResSeq < R->InvSeq)
      MaxDone = std::max(MaxDone, ByRes[Done++]->Value);
    if (R->Value < MaxDone)
      return "new/old inversion: read returned write #" +
             std::to_string(R->Value) + " after a read of write #" +
             std::to_string(MaxDone) + " had finished";
  }
  return "";
}
