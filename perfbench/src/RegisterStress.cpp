//===- RegisterStress.cpp - Workload register-stress ----------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// stressRegister histories on two shared-memory constructions at
// t in {1, 2, 4}: StackRegister (1 reader) and MultiReaderRegister
// (2 readers), each with its full crash budget injected while the writer
// is mid-run; plus one MajorityRegister history driven through a fixed
// schedule that shows its write-back fault. Every history is checked for
// atomicity by the library's checkSwmrAtomicity and by the benchmark's own
// checker; the two must agree. One round is the seven histories.
//
// MajorityRegister has no stress histories: its stale read depends on
// thread timing, and on a loaded host some 20000-write histories came out
// atomic, so their failure count was not the same share in every run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Spans.h"

#include "dyndist/objects/BaseRegister.h"
#include "dyndist/registers/MajorityRegister.h"
#include "dyndist/registers/MultiReaderRegister.h"
#include "dyndist/registers/StackRegister.h"
#include "dyndist/runtime/StressHarness.h"

#include <atomic>
#include <memory>
#include <thread>

using namespace dyndist;
using namespace perfbench;

namespace {

enum class Construction { Stack, MultiReader };
constexpr Construction Constructions[] = {Construction::Stack,
                                          Construction::MultiReader};
constexpr size_t Tolerances[] = {1, 2, 4};

const char *spanName(Construction C) {
  switch (C) {
  case Construction::Stack:
    return "registers.stack";
  case Construction::MultiReader:
    return "registers.multireader";
  }
  return "?";
}

/// One register of the round with its stress options (crash plan).
struct Subject {
  Construction Kind;
  size_t T;
  std::unique_ptr<AtomicRegister> Reg;
  RegisterStressOptions Opt;
};

/// Builds the register and the plan that crashes its whole budget while
/// the writer is between a quarter and three quarters of its writes.
Subject makeSubject(Construction Kind, size_t T, uint64_t Seed, bool Smoke) {
  Subject S{Kind, T, nullptr, {}};
  const size_t Writes = Smoke ? 300 : 2000;
  S.Opt.Seed = Seed;
  S.Opt.Writes = Writes;
  auto crashAt = [&](size_t K) { return Writes / 4 + K * (Writes / 2) / T; };
  switch (Kind) {
  case Construction::Stack: {
    auto *R = new StackRegister(T);
    S.Reg.reset(R);
    S.Opt.Readers = 1;
    S.Opt.ReadsPerReader = Writes;
    for (size_t K = 0; K != T; ++K)
      S.Opt.InjectBeforeWrite[crashAt(K)] = [R, K] { R->base(K).crash(); };
    break;
  }
  case Construction::MultiReader: {
    auto *R = new MultiReaderRegister(2, T);
    S.Reg.reset(R);
    S.Opt.Readers = 2;
    S.Opt.ReadsPerReader = Writes / 2;
    // Every SWSR cell loses t of its t+1 base registers.
    for (size_t K = 0; K != T; ++K)
      S.Opt.InjectBeforeWrite[crashAt(K)] = [R, K] {
        for (size_t I = 0; I != 2; ++I) {
          R->writerCell(I).base(K).crash();
          R->readerCell(I, 1 - I).base(K).crash();
        }
      };
    break;
  }
  }
  return S;
}

/// The E6 model cost of the history's operations (0: no model stated).
uint64_t modelCost(const Subject &S, uint64_t Writes, uint64_t Reads) {
  switch (S.Kind) {
  case Construction::Stack:
    return (S.T + 1) * (Writes + Reads);
  case Construction::MultiReader:
    return 0;
  }
  return 0;
}

struct HistoryOutcome {
  Construction Kind;
  double SetupSeconds = 0; ///< Building the register and its crash plan.
  uint64_t Ops = 0;
  uint64_t BaseInvocations = 0;
  double StressSeconds = 0;
};

/// Judges \p Hist with both atomicity checkers (they must agree) and
/// counts it as one operation, failed when it is not atomic.
void judge(const History &Hist, const std::string &Name, Report &Rep) {
  Status Lib = Status::success();
  {
    Span Sp("objects.check");
    Lib = checkSwmrAtomicity(Hist);
  }
  std::string Own;
  {
    Span Sp("bench.check_atomic");
    Own = checkAtomicHistory(Hist);
  }
  if (Lib.ok() != Own.empty())
    Rep.checkFailed(Name + ": atomicity checkers disagree (library: " +
                    (Lib.ok() ? "atomic" : Lib.error().str()) +
                    "; benchmark: " + (Own.empty() ? "atomic" : Own) + ")");
  Rep.operations(1, Own.empty() ? 0 : 1);
  if (!Own.empty())
    Rep.note(Name + ": " + Own);
}

/// Waits until \p Cond holds; false after 10 s (the schedule went astray).
template <typename Fn> bool waitFor(Fn &&Cond) {
  Clock::time_point Start = Clock::now();
  while (!Cond()) {
    if (secondsSince(Start) > 10)
      return false;
    std::this_thread::yield();
  }
  return true;
}

/// A MajorityRegister history (n = 3 bases, t = 1) driven through one fixed
/// schedule, which depends on no seed. Base suspension and resumeOne()
/// choose the order in which pending base operations take effect, as the
/// asynchronous model allows. Reader 1's write-back of value 1 is held back
/// until write #2 has completed on a quorum, then lands on two bases over
/// the newer tag. Reader 2 starts after write #2 completed, reads those two
/// bases and returns 1. A write-back that kept the higher tag (ABD) would
/// leave value 2 there and the history atomic. Returns "" or why the
/// schedule could not be followed.
std::string majorityWriteBack(History &Hist, uint64_t &BaseInvocations) {
  std::shared_ptr<BaseRegister> B[3];
  for (auto &Base : B)
    Base = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  MajorityRegister Reg({B[0], B[1], B[2]}, 1);
  HistoryRecorder Rec;
  std::atomic<bool> ReaderDone{false}, WriterDone{false};
  std::string Error;
  auto step = [&](const char *What, auto &&Cond) {
    if (Error.empty() && !waitFor(Cond))
      Error = std::string("majority schedule stuck: ") + What;
    return Error.empty();
  };
  auto pending = [&](size_t At1, size_t At2) {
    return [&B, At1, At2] {
      return B[1]->deferredCount() == At1 && B[2]->deferredCount() == At2;
    };
  };
  {
    uint64_t W1 = Rec.beginOp(0, OpKind::Write, 1);
    Reg.write(1);
    Rec.endOp(W1);
    B[1]->suspend();
    B[2]->suspend();
    std::jthread Reader1([&] {
      uint64_t Op = Rec.beginOp(1, OpKind::Read);
      Rec.endOp(Op, Reg.read(0));
      ReaderDone = true;
    });
    std::jthread Writer;
    if (step("reader 1's read", pending(1, 1))) {
      B[1]->resumeOne(0); // Read quorum {B0, B1}: value 1.
    }
    if (step("reader 1's write-back", pending(1, 2))) {
      Writer = std::jthread([&] {
        uint64_t Op = Rec.beginOp(0, OpKind::Write, 2);
        Reg.write(2);
        Rec.endOp(Op);
        WriterDone = true;
      });
    }
    if (step("write #2", pending(2, 3)))
      B[1]->resumeOne(1); // Write #2 completes on {B0, B1}.
    if (step("write #2 to complete", [&] { return WriterDone.load(); }))
      B[1]->resumeOne(0); // The held-back write-back overwrites tag 2.
    if (step("reader 1 to complete", [&] { return ReaderDone.load(); })) {
      B[2]->resumeOne(2); // Write #2 at B2, then the write-back over it.
      B[2]->resumeOne(1);
      B[1]->resume();
      B[2]->resume();
      B[0]->suspend();
      uint64_t Op = Rec.beginOp(2, OpKind::Read);
      Rec.endOp(Op, Reg.read(1)); // Quorum {B1, B2}: both hold value 1.
    }
    // Releases whatever is still held, so both threads can finish.
    for (auto &Base : B)
      Base->resume();
  }
  Hist = Rec.snapshot();
  BaseInvocations = Reg.baseInvocations();
  return Error;
}

/// Runs and checks one round: six stress histories and the majority one.
std::vector<HistoryOutcome> runRound(const Options &O, uint64_t Round,
                                     Report &Rep) {
  std::vector<HistoryOutcome> Out;
  size_t Index = 0;
  for (Construction Kind : Constructions)
    for (size_t T : Tolerances) {
      Clock::time_point Built = Clock::now();
      Subject S =
          makeSubject(Kind, T, subSeed(O.Seed, 4, Round * 6 + Index++),
                      O.Smoke);
      HistoryOutcome H{Kind, secondsSince(Built)};
      History Hist;
      {
        Span Sp(spanName(Kind));
        Clock::time_point T0 = Clock::now();
        Hist = stressRegister(*S.Reg, S.Opt);
        H.StressSeconds = secondsSince(T0);
      }
      H.Ops = Hist.Ops.size();
      H.BaseInvocations = S.Reg->baseInvocations();
      const std::string Name = std::string(spanName(Kind)) + " t=" +
                               std::to_string(T);

      uint64_t Writes = 0;
      for (const Operation &Op : Hist.Ops)
        Writes += Op.Kind == OpKind::Write;
      const uint64_t Reads = Hist.Ops.size() - Writes;
      if (Writes != S.Opt.Writes ||
          Reads != S.Opt.Readers * S.Opt.ReadsPerReader ||
          !Hist.allComplete())
        Rep.checkFailed(Name + ": history is incomplete");
      if (uint64_t Model = modelCost(S, Writes, Reads);
          Model && Model != H.BaseInvocations)
        Rep.checkFailed(Name + ": " + std::to_string(H.BaseInvocations) +
                        " base invocations, E6 model says " +
                        std::to_string(Model));
      judge(Hist, Name, Rep);
      Out.push_back(H);
    }

  History Hist;
  uint64_t Base = 0;
  if (std::string E = majorityWriteBack(Hist, Base); !E.empty())
    Rep.checkFailed(E);
  // Two writes (2t+1 = 3 base invocations each) and two reads (2(2t+1)).
  if (Hist.Ops.size() != 4 || !Hist.allComplete())
    Rep.checkFailed("registers.majority: scripted history is incomplete");
  if (Base != 2 * 3 + 2 * 6)
    Rep.checkFailed("registers.majority: " + std::to_string(Base) +
                    " base invocations, E6 model says 18");
  judge(Hist, "registers.majority t=1", Rep);
  return Out;
}

} // namespace

void perfbench::runRegisterStress(const Options &O, Report &Rep) {
  if (!O.Trace) {
    runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
      Clock::time_point T0 = Clock::now();
      std::vector<HistoryOutcome> Hs = runRound(O, N, Rep);
      double Wall = secondsSince(T0);
      uint64_t Ops = 0;
      double Stress = 0, Setup = 0;
      for (const HistoryOutcome &H : Hs) {
        Ops += H.Ops;
        Stress += H.StressSeconds;
        Setup += H.SetupSeconds;
      }
      Rep.sample("setup_s", "s", Setup);
      Rep.sample("wall_s", "s", Wall);
      // The round's histories: Hs and the scripted majority one.
      Rep.sample("runs_per_s", "runs/s", (Hs.size() + 1) / Wall);
      Rep.sample("ops_per_s", "ops/s", Ops / Stress);
    });
    return;
  }

  // Traced run: per iteration, the plain round and the same round under
  // spans, in alternating order.
  runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
    double PlainWall = 0, TracedWall = 0, CheckSeconds = 0;
    std::vector<HistoryOutcome> Hs;
    alternate(
        N,
        [&] {
          Clock::time_point T0 = Clock::now();
          runRound(O, N, Rep);
          PlainWall = secondsSince(T0);
        },
        [&] {
          CheckSeconds = -spanTotal("objects.check");
          setSpansEnabled(true);
          Clock::time_point T0 = Clock::now();
          Hs = runRound(O, N, Rep);
          TracedWall = secondsSince(T0);
          setSpansEnabled(false);
          CheckSeconds += spanTotal("objects.check");
        });

    double Seconds[2] = {0, 0};
    uint64_t Ops[2] = {0, 0}, AllOps = 0, Base = 0;
    for (const HistoryOutcome &H : Hs) {
      Seconds[size_t(H.Kind)] += H.StressSeconds;
      Ops[size_t(H.Kind)] += H.Ops;
      AllOps += H.Ops;
      Base += H.BaseInvocations;
    }
    Rep.sample("registers.stack_ops_per_s", "ops/s", Ops[0] / Seconds[0]);
    Rep.sample("registers.multireader_ops_per_s", "ops/s",
               Ops[1] / Seconds[1]);
    Rep.sample("objects.check_s", "s", CheckSeconds);
    Rep.sample("registers.base_invocations_per_op", "count/op",
               double(Base) / double(AllOps));
    Rep.sample("bench.trace_overhead_s", "s", TracedWall - PlainWall);
    Rep.sample("bench.traced_wall_s", "s", TracedWall);
  });
}
