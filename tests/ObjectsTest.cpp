//===- ObjectsTest.cpp - dyndist_objects unit tests ----------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/objects/BaseConsensus.h"
#include "dyndist/objects/BaseRegister.h"
#include "dyndist/objects/History.h"
#include "dyndist/objects/Quorum.h"
#include "dyndist/support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace dyndist;

TEST(BaseRegister, InlineReadWrite) {
  BaseRegister R;
  bool WroteOk = false;
  R.asyncWrite({1, 42}, [&WroteOk](bool Ok) { WroteOk = Ok; });
  EXPECT_TRUE(WroteOk);

  std::optional<TaggedValue> Read;
  R.asyncRead([&Read](std::optional<TaggedValue> V) { Read = V; });
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->Seq, 1u);
  EXPECT_EQ(Read->Value, 42);
}

TEST(BaseRegister, InitialValueIsZero) {
  BaseRegister R;
  std::optional<TaggedValue> Read;
  R.asyncRead([&Read](std::optional<TaggedValue> V) { Read = V; });
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, (TaggedValue{0, 0}));
}

TEST(BaseRegister, ResponsiveCrashAnswersBottom) {
  BaseRegister R(FailureMode::Responsive);
  R.crash();
  EXPECT_EQ(R.state(), ObjectState::Crashed);

  bool ReadRan = false, WriteRan = false;
  std::optional<TaggedValue> Read{TaggedValue{9, 9}};
  R.asyncRead([&](std::optional<TaggedValue> V) {
    ReadRan = true;
    Read = V;
  });
  bool Ack = true;
  R.asyncWrite({1, 1}, [&](bool Ok) {
    WriteRan = true;
    Ack = Ok;
  });
  EXPECT_TRUE(ReadRan);
  EXPECT_TRUE(WriteRan);
  EXPECT_FALSE(Read.has_value()); // ⊥.
  EXPECT_FALSE(Ack);              // ⊥.
  EXPECT_EQ(R.droppedOps(), 0u);
}

TEST(BaseRegister, NonresponsiveCrashNeverAnswers) {
  BaseRegister R(FailureMode::Nonresponsive);
  R.crash();
  bool AnyCallback = false;
  R.asyncRead([&](std::optional<TaggedValue>) { AnyCallback = true; });
  R.asyncWrite({1, 1}, [&](bool) { AnyCallback = true; });
  EXPECT_FALSE(AnyCallback);
  EXPECT_EQ(R.droppedOps(), 2u);
}

TEST(BaseRegister, CrashIsIdempotentAndSticky) {
  BaseRegister R(FailureMode::Responsive);
  R.asyncWrite({1, 7}, [](bool) {});
  R.crash();
  R.crash();
  // The stored value is unreachable after the crash.
  std::optional<TaggedValue> Read{TaggedValue{1, 7}};
  R.asyncRead([&Read](std::optional<TaggedValue> V) { Read = V; });
  EXPECT_FALSE(Read.has_value());
}

TEST(BaseRegister, SuspendDefersEffectsUntilResume) {
  BaseRegister R;
  R.suspend();
  EXPECT_EQ(R.state(), ObjectState::Suspended);

  bool WriteDone = false;
  R.asyncWrite({1, 5}, [&WriteDone](bool Ok) { WriteDone = Ok; });
  std::optional<TaggedValue> Read;
  bool ReadDone = false;
  R.asyncRead([&](std::optional<TaggedValue> V) {
    ReadDone = true;
    Read = V;
  });
  EXPECT_FALSE(WriteDone);
  EXPECT_FALSE(ReadDone);
  EXPECT_EQ(R.deferredCount(), 2u);

  R.resume();
  EXPECT_TRUE(WriteDone);
  ASSERT_TRUE(ReadDone);
  // FIFO: the write applied before the read.
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->Value, 5);
  EXPECT_EQ(R.state(), ObjectState::Ok);
}

TEST(BaseRegister, ResumeOneReordersConcurrentOps) {
  BaseRegister R;
  R.suspend();
  R.asyncWrite({1, 5}, [](bool) {});
  std::optional<TaggedValue> Read;
  R.asyncRead([&Read](std::optional<TaggedValue> V) { Read = V; });

  // Linearize the read *before* the pending write.
  R.resumeOne(1);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->Value, 0); // Old value: the write had not taken effect.
  EXPECT_EQ(R.deferredCount(), 1u);
  EXPECT_EQ(R.state(), ObjectState::Suspended);

  R.resume();
  std::optional<TaggedValue> After;
  R.asyncRead([&After](std::optional<TaggedValue> V) { After = V; });
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(After->Value, 5);
}

TEST(BaseRegister, ResponsiveCrashWhileSuspendedAnswersBottom) {
  BaseRegister R(FailureMode::Responsive);
  R.suspend();
  bool Ack = true;
  R.asyncWrite({1, 5}, [&Ack](bool Ok) { Ack = Ok; });
  R.crash();
  EXPECT_FALSE(Ack); // Deferred op answered ⊥ at crash; effect discarded.
}

TEST(BaseRegister, NonresponsiveCrashWhileSuspendedDropsOps) {
  BaseRegister R(FailureMode::Nonresponsive);
  R.suspend();
  bool AnyCallback = false;
  R.asyncWrite({1, 5}, [&](bool) { AnyCallback = true; });
  R.crash();
  EXPECT_FALSE(AnyCallback);
  EXPECT_EQ(R.droppedOps(), 1u);
}

namespace {

/// Reads \p R, which must answer inline.
TaggedValue readNow(BaseRegister &R) {
  std::optional<TaggedValue> Read;
  R.asyncRead([&Read](std::optional<TaggedValue> V) { Read = V; });
  EXPECT_TRUE(Read.has_value());
  return Read.value_or(TaggedValue{});
}

} // namespace

TEST(BaseRegister, WriteMaxKeepsHigherTagAndAcks) {
  BaseRegister R;
  R.asyncWrite({5, 50}, [](bool) {});
  bool Ack = false;
  R.asyncWriteMax({4, 40}, [&Ack](bool Ok) { Ack = Ok; });
  EXPECT_TRUE(Ack);
  EXPECT_EQ(readNow(R), (TaggedValue{5, 50}));
  Ack = false;
  R.asyncWriteMax({5, 51}, [&Ack](bool Ok) { Ack = Ok; });
  EXPECT_TRUE(Ack); // An equal tag is not higher: the cell stays.
  EXPECT_EQ(readNow(R), (TaggedValue{5, 50}));
}

TEST(BaseRegister, WriteOverwritesHigherTag) {
  BaseRegister R;
  R.asyncWrite({5, 50}, [](bool) {});
  R.asyncWrite({4, 40}, [](bool) {}); // Stores exactly what is written.
  EXPECT_EQ(readNow(R), (TaggedValue{4, 40}));
}

TEST(BaseRegister, WriteMaxAppliesHigherTag) {
  BaseRegister R;
  bool Ack = false;
  R.asyncWriteMax({3, 30}, [&Ack](bool Ok) { Ack = Ok; });
  EXPECT_TRUE(Ack);
  EXPECT_EQ(readNow(R), (TaggedValue{3, 30}));
  R.asyncWriteMax({7, 70}, [](bool) {});
  EXPECT_EQ(readNow(R), (TaggedValue{7, 70}));
}

TEST(BaseRegister, DeferredWriteMaxComparesWhenReleasedByResumeOne) {
  BaseRegister R;
  R.asyncWrite({1, 10}, [](bool) {});
  R.suspend();
  bool NewAck = false, OldAck = false;
  R.asyncWrite({3, 30}, [&NewAck](bool Ok) { NewAck = Ok; });
  R.asyncWriteMax({2, 20}, [&OldAck](bool Ok) { OldAck = Ok; });
  // Invoked while the cell still held tag 1, but released after tag 3
  // took effect: the comparison is against tag 3.
  R.resumeOne(0);
  R.resumeOne(0);
  EXPECT_TRUE(NewAck);
  EXPECT_TRUE(OldAck);
  R.resume();
  EXPECT_EQ(readNow(R), (TaggedValue{3, 30}));
}

TEST(BaseRegister, DeferredWriteMaxComparesWhenReleasedByResume) {
  BaseRegister R;
  R.asyncWrite({1, 10}, [](bool) {});
  R.suspend();
  bool NewAck = false, OldAck = false;
  R.asyncWrite({3, 30}, [&NewAck](bool Ok) { NewAck = Ok; });
  R.asyncWriteMax({2, 20}, [&OldAck](bool Ok) { OldAck = Ok; });
  R.resume();
  EXPECT_TRUE(NewAck);
  EXPECT_TRUE(OldAck);
  EXPECT_EQ(readNow(R), (TaggedValue{3, 30}));
}

TEST(BaseRegister, WriteMaxFailsLikeWrite) {
  BaseRegister Responsive(FailureMode::Responsive);
  Responsive.crash();
  bool Ran = false, Ack = true;
  Responsive.asyncWriteMax({1, 1}, [&](bool Ok) {
    Ran = true;
    Ack = Ok;
  });
  EXPECT_TRUE(Ran);
  EXPECT_FALSE(Ack); // ⊥.
  EXPECT_EQ(Responsive.droppedOps(), 0u);

  BaseRegister Silent(FailureMode::Nonresponsive);
  Silent.crash();
  bool AnyCallback = false;
  Silent.asyncWriteMax({1, 1}, [&](bool) { AnyCallback = true; });
  EXPECT_FALSE(AnyCallback);
  EXPECT_EQ(Silent.droppedOps(), 1u);
}

TEST(BaseConsensus, FirstProposalSticks) {
  BaseConsensus C;
  std::optional<int64_t> First, Second;
  C.asyncPropose(7, [&First](std::optional<int64_t> V) { First = V; });
  C.asyncPropose(9, [&Second](std::optional<int64_t> V) { Second = V; });
  EXPECT_EQ(First, std::optional<int64_t>(7));
  EXPECT_EQ(Second, std::optional<int64_t>(7));
  EXPECT_EQ(C.decision(), std::optional<int64_t>(7));
}

TEST(BaseConsensus, ResponsiveCrashAnswersBottom) {
  BaseConsensus C(FailureMode::Responsive);
  C.crash();
  std::optional<int64_t> Res{123};
  bool Ran = false;
  C.asyncPropose(7, [&](std::optional<int64_t> V) {
    Ran = true;
    Res = V;
  });
  EXPECT_TRUE(Ran);
  EXPECT_FALSE(Res.has_value());
  EXPECT_FALSE(C.decision().has_value());
}

TEST(BaseConsensus, NonresponsiveCrashNeverAnswers) {
  BaseConsensus C(FailureMode::Nonresponsive);
  C.crash();
  bool Ran = false;
  C.asyncPropose(7, [&Ran](std::optional<int64_t>) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(BaseConsensus, SuspendedProposalsApplyInOrderOnResume) {
  BaseConsensus C;
  C.suspend();
  std::optional<int64_t> R1, R2;
  C.asyncPropose(5, [&R1](std::optional<int64_t> V) { R1 = V; });
  C.asyncPropose(6, [&R2](std::optional<int64_t> V) { R2 = V; });
  EXPECT_FALSE(C.decision().has_value());
  C.resume();
  EXPECT_EQ(R1, std::optional<int64_t>(5));
  EXPECT_EQ(R2, std::optional<int64_t>(5)); // First in order sticks.
}

TEST(BaseConsensus, ResumeOneLetsALaterProposalWin) {
  BaseConsensus C;
  C.suspend();
  std::optional<int64_t> R1, R2;
  C.asyncPropose(5, [&R1](std::optional<int64_t> V) { R1 = V; });
  C.asyncPropose(6, [&R2](std::optional<int64_t> V) { R2 = V; });
  C.resumeOne(1); // The adversary linearizes the second proposal first.
  EXPECT_EQ(R2, std::optional<int64_t>(6));
  C.resume();
  EXPECT_EQ(R1, std::optional<int64_t>(6));
}

TEST(QuorumLatch, CountsAndUnblocks) {
  QuorumLatch L(2);
  EXPECT_FALSE(L.reached());
  L.arrive();
  EXPECT_FALSE(L.reached());
  L.arrive();
  EXPECT_TRUE(L.reached());
  L.await(); // Returns immediately.
}

TEST(QuorumLatch, AwaitForTimesOut) {
  QuorumLatch L(1);
  EXPECT_FALSE(L.awaitFor(std::chrono::milliseconds(10)));
  L.arrive();
  EXPECT_TRUE(L.awaitFor(std::chrono::milliseconds(10)));
}

TEST(QuorumLatch, CrossThreadRelease) {
  auto L = std::make_shared<QuorumLatch>(1);
  std::thread Releaser([L] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    L->arrive();
  });
  L->await();
  EXPECT_TRUE(L->reached());
  Releaser.join();
}

//===----------------------------------------------------------------------===//
// History recorder and checkers
//===----------------------------------------------------------------------===//

namespace {

/// Builds a history from (client, kind, value, inv, res) tuples with
/// explicit stamps.
History makeHistory(
    std::initializer_list<std::tuple<uint64_t, OpKind, int64_t, uint64_t,
                                     uint64_t>>
        Spec) {
  History H;
  uint64_t Id = 0;
  for (const auto &[Client, Kind, Value, Inv, Res] : Spec) {
    Operation O;
    O.Id = Id++;
    O.Client = Client;
    O.Kind = Kind;
    O.Value = Value;
    O.InvSeq = Inv;
    O.ResSeq = Res;
    O.Completed = true;
    H.Ops.push_back(O);
  }
  return H;
}

} // namespace

TEST(HistoryRecorder, StampsAndCompletion) {
  HistoryRecorder Rec;
  uint64_t W = Rec.beginOp(0, OpKind::Write, 5);
  uint64_t R = Rec.beginOp(1, OpKind::Read);
  Rec.endOp(W);
  Rec.endOp(R, 5);
  History H = Rec.snapshot();
  ASSERT_EQ(H.Ops.size(), 2u);
  EXPECT_TRUE(H.allComplete());
  EXPECT_LT(H.Ops[0].InvSeq, H.Ops[1].InvSeq);
  EXPECT_LT(H.Ops[1].InvSeq, H.Ops[0].ResSeq);
  EXPECT_EQ(H.Ops[1].Value, 5);
  EXPECT_EQ(H.byClient(1).size(), 1u);
}

TEST(SwmrChecker, AcceptsSequentialHistory) {
  // w(1) r->1 w(2) r->2, fully sequential.
  History H = makeHistory({{0, OpKind::Write, 1, 1, 2},
                           {1, OpKind::Read, 1, 3, 4},
                           {0, OpKind::Write, 2, 5, 6},
                           {1, OpKind::Read, 2, 7, 8}});
  EXPECT_TRUE(checkSwmrAtomicity(H).ok());
  EXPECT_TRUE(checkSwmrRegularity(H).ok());
}

TEST(SwmrChecker, AcceptsConcurrentReadEitherValue) {
  // Read concurrent with w(1) may return 0 or 1.
  History Old = makeHistory(
      {{0, OpKind::Write, 1, 1, 4}, {1, OpKind::Read, 0, 2, 3}});
  History New = makeHistory(
      {{0, OpKind::Write, 1, 1, 4}, {1, OpKind::Read, 1, 2, 3}});
  EXPECT_TRUE(checkSwmrAtomicity(Old).ok());
  EXPECT_TRUE(checkSwmrAtomicity(New).ok());
}

TEST(SwmrChecker, RejectsStaleRead) {
  // w(1) completes, then a read returns the initial 0.
  History H = makeHistory(
      {{0, OpKind::Write, 1, 1, 2}, {1, OpKind::Read, 0, 3, 4}});
  EXPECT_FALSE(checkSwmrAtomicity(H).ok());
  EXPECT_FALSE(checkSwmrRegularity(H).ok());
}

TEST(SwmrChecker, RejectsFutureRead) {
  // A read completes before the write of its value even begins.
  History H = makeHistory(
      {{1, OpKind::Read, 1, 1, 2}, {0, OpKind::Write, 1, 3, 4}});
  EXPECT_FALSE(checkSwmrAtomicity(H).ok());
}

TEST(SwmrChecker, RejectsNeverWrittenValue) {
  History H = makeHistory({{1, OpKind::Read, 42, 1, 2}});
  EXPECT_FALSE(checkSwmrAtomicity(H).ok());
}

TEST(SwmrChecker, RejectsNewOldInversion) {
  // w(1) concurrent with two sequential reads: first returns 1 (new),
  // second returns 0 (old) — regular but not atomic.
  History H = makeHistory({{0, OpKind::Write, 1, 1, 10},
                           {1, OpKind::Read, 1, 2, 3},
                           {1, OpKind::Read, 0, 4, 5}});
  EXPECT_FALSE(checkSwmrAtomicity(H).ok());
  EXPECT_TRUE(checkSwmrRegularity(H).ok()); // Regularity tolerates it.
}

TEST(SwmrChecker, InversionAcrossDifferentReaders) {
  History H = makeHistory({{0, OpKind::Write, 1, 1, 10},
                           {1, OpKind::Read, 1, 2, 3},
                           {2, OpKind::Read, 0, 4, 5}});
  EXPECT_FALSE(checkSwmrAtomicity(H).ok());
}

TEST(SwmrChecker, RequiresDistinctValues) {
  History H = makeHistory(
      {{0, OpKind::Write, 1, 1, 2}, {0, OpKind::Write, 1, 3, 4}});
  EXPECT_FALSE(checkSwmrAtomicity(H).ok());
}

TEST(SwmrChecker, RejectsOverlappingWrites) {
  // w(2) completes before the read begins, so returning the initial 0 is
  // stale; a checker assuming sequential writes would miss it because
  // w(1), invoked first, is still running. A single writer cannot have two
  // writes in progress, so the history is refused as malformed.
  History H = makeHistory({{0, OpKind::Write, 1, 1, 10},
                           {0, OpKind::Write, 2, 2, 3},
                           {1, OpKind::Read, 0, 4, 5}});
  for (const Status &S : {checkSwmrAtomicity(H), checkSwmrRegularity(H)}) {
    ASSERT_FALSE(S.ok());
    EXPECT_EQ(S.error().Kind, Error::Code::InvalidArgument);
    EXPECT_NE(S.error().str().find("writes overlap"), std::string::npos)
        << S.error().str();
  }
  EXPECT_FALSE(checkLinearizableRegister(H).ok());
}

TEST(SwmrChecker, RejectsResponseBeforeInvocation) {
  History H = makeHistory({{0, OpKind::Write, 1, 4, 3}});
  Status S = checkSwmrAtomicity(H);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Kind, Error::Code::InvalidArgument);
}

TEST(SwmrChecker, ReportsValueThatRepeatsTheInitialOne) {
  History H = makeHistory(
      {{0, OpKind::Write, 5, 1, 2}, {0, OpKind::Write, 0, 3, 4}});
  Status S = checkSwmrAtomicity(H);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Kind, Error::Code::InvalidArgument);
  EXPECT_EQ(S.error().str(),
            "invalid-argument: written values must be distinct; 0 repeats");
}

TEST(LinChecker, AgreesWithSwmrCheckerOnExamples) {
  History Good = makeHistory({{0, OpKind::Write, 1, 1, 10},
                              {1, OpKind::Read, 1, 2, 3},
                              {1, OpKind::Read, 1, 4, 5}});
  EXPECT_TRUE(checkLinearizableRegister(Good).ok());
  EXPECT_TRUE(checkSwmrAtomicity(Good).ok());

  History Bad = makeHistory({{0, OpKind::Write, 1, 1, 10},
                             {1, OpKind::Read, 1, 2, 3},
                             {1, OpKind::Read, 0, 4, 5}});
  EXPECT_FALSE(checkLinearizableRegister(Bad).ok());
  EXPECT_FALSE(checkSwmrAtomicity(Bad).ok());
}

TEST(LinChecker, HandlesMultiWriterHistories) {
  // Two concurrent writers then a read: any of the two values (but not the
  // initial one) is linearizable.
  History Ok = makeHistory({{0, OpKind::Write, 1, 1, 4},
                            {1, OpKind::Write, 2, 2, 3},
                            {2, OpKind::Read, 1, 5, 6}});
  EXPECT_TRUE(checkLinearizableRegister(Ok).ok());
  History Ok2 = makeHistory({{0, OpKind::Write, 1, 1, 4},
                             {1, OpKind::Write, 2, 2, 3},
                             {2, OpKind::Read, 2, 5, 6}});
  EXPECT_TRUE(checkLinearizableRegister(Ok2).ok());
  History Bad = makeHistory({{0, OpKind::Write, 1, 1, 4},
                             {1, OpKind::Write, 2, 2, 3},
                             {2, OpKind::Read, 0, 5, 6}});
  EXPECT_FALSE(checkLinearizableRegister(Bad).ok());
}

TEST(LinChecker, CapsHistorySize) {
  History H;
  for (int I = 0; I != 30; ++I) {
    Operation O;
    O.Kind = OpKind::Write;
    O.Value = I;
    O.InvSeq = static_cast<uint64_t>(2 * I + 1);
    O.ResSeq = static_cast<uint64_t>(2 * I + 2);
    O.Completed = true;
    H.Ops.push_back(O);
  }
  Status S = checkLinearizableRegister(H);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Kind, Error::Code::Unsupported);
}

namespace {

/// Reference SWMR checker: the three clauses checked pair by pair, in
/// O(R^2 + R*W). The library's checker must give the same verdicts.
Status pairwiseSwmrCheck(const History &H, int64_t Initial,
                         bool CheckInversions) {
  std::vector<Operation> Writes, Reads;
  for (const Operation &O : H.Ops)
    (O.Kind == OpKind::Write ? Writes : Reads).push_back(O);
  std::sort(Writes.begin(), Writes.end(),
            [](const Operation &A, const Operation &B) {
              return A.InvSeq < B.InvSeq;
            });
  Operation Init;
  Init.Kind = OpKind::Write;
  Init.Value = Initial;
  Writes.insert(Writes.begin(), Init);
  std::map<int64_t, size_t> IndexOf;
  for (size_t I = 0; I != Writes.size(); ++I)
    if (!IndexOf.emplace(Writes[I].Value, I).second)
      return Error(Error::Code::InvalidArgument, "repeated value");

  std::vector<size_t> ReadIndex(Reads.size());
  for (size_t R = 0; R != Reads.size(); ++R) {
    auto It = IndexOf.find(Reads[R].Value);
    if (It == IndexOf.end())
      return Error(Error::Code::ProtocolViolation, "never written");
    size_t I = ReadIndex[R] = It->second;
    // (i) The write must have started before the read ended.
    if (I != 0 && Writes[I].InvSeq > Reads[R].ResSeq)
      return Error(Error::Code::ProtocolViolation, "(i) future read");
    // (ii) No write after the returned one completed before the read.
    for (size_t J = I + 1; J < Writes.size(); ++J)
      if (Writes[J].ResSeq < Reads[R].InvSeq)
        return Error(Error::Code::ProtocolViolation, "(ii) stale read");
  }
  if (!CheckInversions)
    return Status::success();
  // (iii) No new/old inversion between real-time-ordered reads.
  for (size_t A = 0; A != Reads.size(); ++A)
    for (size_t B = 0; B != Reads.size(); ++B)
      if (Reads[A].ResSeq < Reads[B].InvSeq && ReadIndex[B] < ReadIndex[A])
        return Error(Error::Code::ProtocolViolation, "(iii) inversion");
  return Status::success();
}

/// A random single-writer history: client 0 writes, clients 1..Readers
/// read, each client one operation after another. Invocations,
/// linearization points and responses of the clients interleave at
/// random, and each read first returns the value current at its
/// linearization point, so the history is atomic. Then, with probability
/// one half, up to two reads are changed to return another value: a
/// nearby write, any write, or (rarely) a value never written.
History randomSwmrHistory(Rng &R, size_t Writes, size_t Readers,
                          size_t ReadsPerReader) {
  // Distinct written values in random order, none equal to the initial 0.
  std::vector<int64_t> Values(Writes + 1, 0);
  for (size_t K = 1; K <= Writes; ++K)
    Values[K] = 7 * static_cast<int64_t>(K) - 3;
  std::vector<int64_t> Shuffled(Values.begin() + 1, Values.end());
  R.shuffle(Shuffled);
  std::copy(Shuffled.begin(), Shuffled.end(), Values.begin() + 1);

  enum class Phase { Idle, Pending, Effective };
  struct Client {
    size_t Left = 0;
    Phase At = Phase::Idle;
    size_t Op = 0;
  };
  std::vector<Client> Clients(Readers + 1);
  Clients[0].Left = Writes;
  for (size_t C = 1; C <= Readers; ++C)
    Clients[C].Left = ReadsPerReader;

  History H;
  std::vector<std::pair<size_t, size_t>> ReadOps; // (op, write index)
  size_t Current = 0, NextWrite = 1;
  uint64_t Stamp = 1;
  std::vector<size_t> Busy;
  for (;;) {
    Busy.clear();
    for (size_t C = 0; C != Clients.size(); ++C)
      if (Clients[C].Left || Clients[C].At != Phase::Idle)
        Busy.push_back(C);
    if (Busy.empty())
      break;
    size_t C = R.pick(Busy);
    Client &Cl = Clients[C];
    switch (Cl.At) {
    case Phase::Idle: {
      Operation O;
      O.Id = H.Ops.size();
      O.Client = C;
      O.Kind = C == 0 ? OpKind::Write : OpKind::Read;
      O.InvSeq = Stamp++;
      if (C == 0)
        O.Value = Values[NextWrite++];
      Cl.Op = H.Ops.size();
      H.Ops.push_back(O);
      --Cl.Left;
      Cl.At = Phase::Pending;
      break;
    }
    case Phase::Pending:
      if (C == 0) {
        ++Current;
      } else {
        H.Ops[Cl.Op].Value = Values[Current];
        ReadOps.emplace_back(Cl.Op, Current);
      }
      Cl.At = Phase::Effective;
      break;
    case Phase::Effective:
      H.Ops[Cl.Op].ResSeq = Stamp++;
      H.Ops[Cl.Op].Completed = true;
      Cl.At = Phase::Idle;
      break;
    }
  }

  if (ReadOps.empty() || R.nextBernoulli(0.5))
    return H;
  for (uint64_t M = R.nextBelow(2); M != 2; ++M) {
    size_t P = R.nextBelow(ReadOps.size());
    auto [Op, Index] = ReadOps[P];
    uint64_t Kind = R.nextBelow(20);
    if (Kind == 0) {
      H.Ops[Op].Value = -1; // Never written: every value is 0 or 7K - 3.
    } else if (Kind < 4) {
      H.Ops[Op].Value = Values[R.nextBelow(Values.size())];
    } else if (Kind < 12) {
      int64_t Near = static_cast<int64_t>(Index) + R.nextInRange(-2, 2);
      H.Ops[Op].Value = Values[std::clamp<int64_t>(Near, 0, Writes)];
    } else if (P + 1 != ReadOps.size()) {
      // Swap with the next read in linearization order.
      std::swap(H.Ops[Op].Value, H.Ops[ReadOps[P + 1].first].Value);
    }
  }
  return H;
}

/// Which clause a pairwise verdict names, for coverage counts.
size_t clauseOf(const Status &S) {
  if (S.ok())
    return 0;
  const std::string Text = S.error().str();
  for (size_t C = 1; C <= 3; ++C)
    if (Text.find("(" + std::string(C, 'i') + ")") != std::string::npos)
      return C;
  return 4;
}

/// The generated histories must include atomic ones and violations of
/// each clause, or agreement would show little.
void expectEveryClause(const size_t (&ByClause)[5]) {
  EXPECT_GT(ByClause[0], 0u) << "no atomic history";
  EXPECT_GT(ByClause[1], 0u) << "clause (i) never violated";
  EXPECT_GT(ByClause[2], 0u) << "clause (ii) never violated";
  EXPECT_GT(ByClause[3], 0u) << "clause (iii) never violated";
}

} // namespace

TEST(SwmrChecker, AgreesWithLinearizabilitySearchOnSmallHistories) {
  // 10^4 histories of at most 16 operations against the exhaustive search.
  const uint64_t Master = 0x5eed0017;
  size_t ByClause[5] = {};
  for (uint64_t I = 0; I != 10000; ++I) {
    const uint64_t Seed = Master + I;
    Rng R(Seed);
    size_t Writes = R.nextBelow(6);
    size_t Readers = 1 + R.nextBelow(3);
    size_t PerReader = 1 + R.nextBelow((16 - Writes) / Readers);
    History H = randomSwmrHistory(R, Writes, Readers, PerReader);
    ASSERT_LE(H.Ops.size(), 16u);
    ASSERT_EQ(checkSwmrAtomicity(H).ok(), checkLinearizableRegister(H).ok())
        << "seed " << Seed;
    ++ByClause[clauseOf(pairwiseSwmrCheck(H, 0, /*CheckInversions=*/true))];
  }
  expectEveryClause(ByClause);
}

TEST(SwmrChecker, AgreesWithPairwiseOracleOnLargeHistories) {
  // 10^3 histories of a few hundred operations against the pairwise
  // clauses, for both atomicity and regularity.
  const uint64_t Master = 0x5eed1017;
  size_t ByClause[5] = {};
  for (uint64_t I = 0; I != 1000; ++I) {
    const uint64_t Seed = Master + I;
    Rng R(Seed);
    size_t Writes = 50 + R.nextBelow(101);
    size_t Readers = 1 + R.nextBelow(3);
    size_t PerReader = 30 + R.nextBelow(71);
    History H = randomSwmrHistory(R, Writes, Readers, PerReader);
    for (bool Atomic : {true, false}) {
      Status Want = pairwiseSwmrCheck(H, 0, Atomic);
      Status Got = Atomic ? checkSwmrAtomicity(H) : checkSwmrRegularity(H);
      ASSERT_EQ(Got.ok(), Want.ok())
          << "seed " << Seed << (Atomic ? " atomicity: " : " regularity: ")
          << (Got.ok() ? Want.error().str() : Got.error().str());
      if (!Got.ok()) {
        ASSERT_EQ(Got.error().Kind, Want.error().Kind) << "seed " << Seed;
      }
      if (Atomic)
        ++ByClause[clauseOf(Want)];
    }
  }
  expectEveryClause(ByClause);
}

TEST(ConsensusChecker, AgreementAndValidity) {
  std::vector<ConsensusRecord> Good = {{0, 10, true, 11},
                                       {1, 11, true, 11},
                                       {2, 12, true, 11}};
  EXPECT_TRUE(checkConsensusRun(Good).ok());

  std::vector<ConsensusRecord> Split = {{0, 10, true, 10},
                                        {1, 11, true, 11}};
  EXPECT_FALSE(checkConsensusRun(Split).ok());

  std::vector<ConsensusRecord> Invented = {{0, 10, true, 99}};
  EXPECT_FALSE(checkConsensusRun(Invented).ok());

  std::vector<ConsensusRecord> Hung = {{0, 10, true, 10},
                                       {1, 11, false, 0}};
  EXPECT_FALSE(checkConsensusRun(Hung).ok());
  EXPECT_TRUE(checkConsensusRun(Hung, /*RequireAllDecide=*/false).ok());
}
