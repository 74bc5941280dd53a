//===- SelfTest.cpp - Every check rejects a wrong input -------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// A check that cannot fail proves nothing. Each case below hands one of the
// benchmark's checks a deliberately wrong input and expects a rejection,
// and hands it the matching right input and expects acceptance:
//
//  - flooding with a TTL below D in a D<=10 cell misses the spec;
//  - an archive with one tampered contributor, or one tampered value,
//    disagrees with the run's verdict;
//  - message and membership counts off by one are caught;
//  - hand-made register histories with a stale read, a read of the future
//    and a new/old inversion are not atomic.
//
//===----------------------------------------------------------------------===//

#include "Archive.h"
#include "Bench.h"
#include "Checks.h"

#include "dyndist/aggregation/Protocol.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/sim/TraceColumnar.h"

#include <cstdio>
#include <functional>
#include <unistd.h>

using namespace dyndist;
using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  std::printf("%s  %s\n", Ok ? "ok  " : "FAIL", What.c_str());
  if (!Ok)
    ++Failures;
}

// --- E1: a flood whose TTL cannot cover the diameter ----------------------

void floodBelowDiameter() {
  SystemClass Cell{ArrivalModel::infiniteArrival(),
                   KnowledgeModel::knownDiameter(10)};
  auto runs = [&](uint64_t Ttl) {
    size_t Rejected = 0;
    for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
      ExperimentConfig Cfg;
      Cfg.Seed = Seed;
      Cfg.Class = Cell;
      Cfg.Churn.JoinRate = 0.05;
      Cfg.Churn.MeanSession = 400;
      Cfg.Churn.Horizon = 600;
      Cfg.TtlOverride = Ttl;
      ExperimentResult R = runQueryExperiment(Cfg);
      E1Run Run{R.ClassAdmissible, R.QueryIssued, R.Verdict.valid(),
                !R.Verdict.Terminated || R.Verdict.NoInvention,
                !R.Verdict.Terminated || R.Verdict.AggregateConsistent};
      Rejected += !e1RunFailure(Run, paperVerdict(Cell), false).empty();
    }
    return Rejected;
  };
  expect(paperVerdict(Cell) == PaperVerdict::Solvable,
         "paper matrix: M^inf x D<=10 is solvable");
  expect(runs(0) == 0, "e1: flood with the class's TTL (D=10) passes");
  expect(runs(1) > 0, "e1: flood with TTL 1 < D=10 is rejected");
}

// --- echo: a tampered archive ---------------------------------------------

/// Copies the archive at \p From to \p To through \p Edit.
bool rewriteArchive(const std::string &From, const std::string &To,
                    const std::function<void(TraceEvent &)> &Edit) {
  auto Reader = ColumnarTraceReader::open(From);
  if (!Reader)
    return false;
  ColumnarTraceWriter W;
  if (!W.open(To))
    return false;
  for (size_t I = 0; I != (*Reader)->chunkCount(); ++I) {
    Status S = (*Reader)->scanChunk(I, [&](const TraceEventView &V) {
      TraceEvent E{V.Kind,    V.Time,           V.Subject, V.Peer,
                   V.MsgKind, std::string(V.Key), V.Value};
      Edit(E);
      W.append(E);
    });
    if (!S)
      return false;
  }
  return W.close().ok();
}

bool archiveAgrees(const ExperimentResult &R, const std::string &Path) {
  QueryRecount C;
  return recountQuery(Path, InvalidProcess, C).empty() &&
         compareRecount(R, C).empty();
}

void tamperedArchive() {
  ExperimentConfig Cfg;
  Cfg.Seed = 7;
  Cfg.Class = SystemClass{ArrivalModel::finiteArrival(600, false),
                          KnowledgeModel::unboundedDiameter()};
  Cfg.InitialMembers = 300;
  Cfg.Churn.JoinRate = 0.5;
  Cfg.Churn.Horizon = 100;
  Cfg.Churn.QuiesceAt = 100;
  Cfg.QueryAt = 150;
  Cfg.Horizon = 400;
  Cfg.DiameterSampleEvery = 0;
  Cfg.KeepTrace = true;
  ExperimentResult R = runQueryExperiment(Cfg);
  const std::string Base = archivePath(".", "selftest");
  const std::string Bad = archivePath(".", "selftest-tampered");
  expect(R.RecordedTrace &&
             writeColumnarTraceFile(*R.RecordedTrace, Base).ok(),
         "echo: archive written");
  expect(archiveAgrees(R, Base), "echo: untouched archive agrees");

  // One contributor swapped for a process that is not in the set.
  bool Done = false;
  rewriteArchive(Base, Bad, [&](TraceEvent &E) {
    if (!Done && E.Kind == TraceKind::Observe && E.Key == OtqIncludeKey) {
      E.Value = 1000000;
      Done = true;
    }
  });
  expect(Done && !archiveAgrees(R, Bad),
         "echo: archive with a tampered contributor is rejected");

  // One contributor's declared value changed.
  ProcessId Contributor = InvalidProcess;
  for (const TraceEvent &E : R.RecordedTrace->events())
    if (E.Kind == TraceKind::Observe && E.Key == OtqIncludeKey) {
      Contributor = static_cast<ProcessId>(E.Value);
      break;
    }
  Done = false;
  rewriteArchive(Base, Bad, [&](TraceEvent &E) {
    if (!Done && E.Kind == TraceKind::Observe && E.Key == OtqValueKey &&
        E.Subject == Contributor) {
      E.Value += 1;
      Done = true;
    }
  });
  expect(Done && !archiveAgrees(R, Bad),
         "echo: archive with a tampered value is rejected");

  // One message record dropped: the kernel's count is one higher.
  Done = false;
  rewriteArchive(Base, Bad, [&](TraceEvent &E) {
    if (!Done && E.Kind == TraceKind::Send) {
      E.Kind = TraceKind::Deliver;
      Done = true;
    }
  });
  expect(Done && !archiveAgrees(R, Bad),
         "echo: archive with one send relabelled is rejected");
  std::remove(Base.c_str());
  std::remove(Bad.c_str());
}

// --- kernel: counts off by one --------------------------------------------

void countsOffByOne() {
  KindCounts K{};
  K[size_t(TraceKind::Join)] = 1002;
  K[size_t(TraceKind::Crash)] = 2;
  K[size_t(TraceKind::Send)] = 50;
  K[size_t(TraceKind::Deliver)] = 48;
  K[size_t(TraceKind::Drop)] = 2;
  SimStats S;
  S.MessagesSent = 50;
  S.MessagesDelivered = 48;
  S.MessagesDropped = 2;
  expect(compareMessageCounts(K, S).empty(), "kernel: equal counts pass");
  for (uint64_t SimStats::*F :
       {&SimStats::MessagesSent, &SimStats::MessagesDelivered,
        &SimStats::MessagesDropped}) {
    SimStats Off = S;
    Off.*F += 1;
    expect(!compareMessageCounts(K, Off).empty(),
           "kernel: a message count off by one is rejected");
  }
  expect(checkChurnCounts(K, 1000, 60, 25).empty(),
         "kernel: joins = n + H/churn and crashes = H/churn pass");
  KindCounts J = K;
  J[size_t(TraceKind::Join)] += 1;
  expect(!checkChurnCounts(J, 1000, 60, 25).empty(),
         "kernel: joins off by one are rejected");
  KindCounts C = K;
  C[size_t(TraceKind::Crash)] -= 1;
  expect(!checkChurnCounts(C, 1000, 60, 25).empty(),
         "kernel: crashes off by one are rejected");

  KindCounts Parsed;
  expect(parseKindTable("kind\tcount\tvalue_sum\tt_min\tt_max\n"
                        "join\t1002\t0\t0\t50\ncrash\t2\t0\t25\t50\n"
                        "send\t50\t0\t4\t60\ndeliver\t48\t0\t5\t60\n"
                        "drop\t2\t0\t5\t60\n",
                        Parsed)
                 .empty() &&
             Parsed == K,
         "kernel: group-by table parses to the same counts");
  expect(parseKindTable("kind\tcount\nsend\t51\t0\n", Parsed).empty() &&
             Parsed != K,
         "kernel: a group-by count off by one differs");
}

// --- registers: hand-made histories ---------------------------------------

/// A history from (client, kind, value, invocation, response) tuples.
History history(
    std::initializer_list<std::tuple<uint64_t, OpKind, int64_t, uint64_t,
                                     uint64_t>>
        Ops) {
  History H;
  uint64_t Id = 0;
  for (auto [Client, Kind, Value, Inv, Res] : Ops) {
    Operation Op;
    Op.Id = Id++;
    Op.Client = Client;
    Op.Kind = Kind;
    Op.Value = Value;
    Op.InvSeq = Inv;
    Op.ResSeq = Res;
    Op.Completed = true;
    H.Ops.push_back(Op);
  }
  return H;
}

void registerHistories() {
  const OpKind W = OpKind::Write, R = OpKind::Read;
  auto judge = [](const History &H, bool Atomic, const std::string &What) {
    bool Own = checkAtomicHistory(H).empty();
    bool Lib = checkSwmrAtomicity(H).ok();
    expect(Own == Atomic && Lib == Atomic, What);
  };
  judge(history({{0, W, 1, 1, 2}, {0, W, 2, 3, 6}, {1, R, 1, 4, 5},
                 {1, R, 2, 7, 8}}),
        true, "registers: an atomic history passes");
  judge(history({{0, W, 1, 1, 2}, {0, W, 2, 3, 4}, {1, R, 1, 5, 6}}), false,
        "registers: a stale read is rejected");
  judge(history({{0, W, 1, 1, 2}, {1, R, 2, 3, 4}, {0, W, 2, 5, 6}}), false,
        "registers: a read of a write not yet begun is rejected");
  judge(history({{0, W, 1, 1, 2}, {0, W, 2, 3, 10}, {1, R, 2, 4, 5},
                 {2, R, 1, 6, 7}}),
        false, "registers: a new/old inversion is rejected");
}

} // namespace

int perfbench::runSelfTest() {
  floodBelowDiameter();
  tamperedArchive();
  countsOffByOne();
  registerHistories();
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "passed",
              Failures);
  return Failures;
}
