//===- Assembly.cpp - A query run assembled step by step ------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "Assembly.h"

#include "Spans.h"

#include "dyndist/aggregation/Echo.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/aggregation/Gossip.h"
#include "dyndist/aggregation/Protocol.h"

using namespace dyndist;
using namespace perfbench;

namespace {

DynamicSystemConfig systemConfigFor(const ExperimentConfig &C) {
  DynamicSystemConfig S;
  S.Seed = C.Seed;
  S.Class = C.Class;
  S.InitialMembers = C.InitialMembers;
  S.OverlayDegree = C.OverlayDegree;
  S.Attach = C.Attach;
  S.Churn = C.Churn;
  S.Latency = C.Latency;
  S.Shards = C.Shards;
  S.DiameterSampleEvery = C.DiameterSampleEvery;
  S.MonitorUntil = C.DiameterSampleEvery > 0 ? C.Horizon : 0;
  S.Tracing = C.KeepTrace ? TraceLevel::Full : C.Tracing;
  return S;
}

/// The oracle's protocol for the class, every member declaring a distinct
/// value from a fresh counter.
ChurnDriver::ActorFactory factoryFor(const ExperimentConfig &C) {
  auto Counter = std::make_shared<int64_t>(0);
  auto Next = [Counter] { return ++*Counter; };
  RecommendedAlgorithm Algo =
      C.UseRecommended ? recommendedAlgorithm(C.Class) : C.Algorithm;
  switch (Algo) {
  case RecommendedAlgorithm::FloodingKnownDiameter:
  case RecommendedAlgorithm::FloodingDerivedBound: {
    auto F = std::make_shared<FloodConfig>();
    F->Ttl = C.TtlOverride ? C.TtlOverride
                           : derivableTtl(C.Class).value_or(16);
    F->MaxLatency = C.MaxLatencyForDeadline;
    return makeFloodFactory(F, Next);
  }
  case RecommendedAlgorithm::EchoTermination:
    return makeEchoFactory(Next);
  case RecommendedAlgorithm::GossipBestEffort:
    return makeGossipFactory(std::make_shared<GossipConfig>(C.Gossip), Next);
  }
  return makeEchoFactory(Next);
}

} // namespace

DynamicSystem &QueryRun::acquire(const ExperimentConfig &Config) {
  Span S("aggregation.arena_acquire");
  DynamicSystemConfig SysCfg = systemConfigFor(Config);
  if (!Sys || Shards != SysCfg.Shards) {
    Sys = std::make_unique<DynamicSystem>(SysCfg, factoryFor(Config));
    Shards = SysCfg.Shards;
  } else {
    Sys->reset(SysCfg, factoryFor(Config));
  }
  return *Sys;
}

AssembledResult QueryRun::finish(const ExperimentConfig &Config) {
  AssembledResult Out;
  Out.Issuer = Sys->sim().spawn(Sys->churn().makeActor());
  scheduleQueryStart(Sys->sim(), Config.QueryAt, Out.Issuer);
  {
    Span S("arrival.churn_phase");
    RunLimits L;
    L.MaxTime = Config.QueryAt ? Config.QueryAt - 1 : 0;
    Sys->run(L);
  }
  {
    Span S("aggregation.query_phase");
    RunLimits L;
    L.MaxTime = Config.Horizon;
    Sys->run(L);
  }
  ExperimentResult &R = Out.R;
  {
    Span S("core.verdict");
    Status Admissible = Sys->checkClassAdmissible();
    R.ClassAdmissible = Admissible.ok();
    if (!Admissible.ok())
      R.AdmissibilityError = Admissible.error().str();
    auto Issue = Sys->sim().trace().firstObservation(Out.Issuer, OtqIssueKey);
    if (Issue) {
      R.QueryIssued = true;
      R.Verdict = checkOneTimeQuery(Sys->sim().trace(), Out.Issuer,
                                    Issue->Time, Config.Horizon);
    }
  }
  R.Stats = Sys->sim().stats();
  R.MaxDiameter = Sys->maxObservedDiameter();
  R.DisconnectedSamples = Sys->disconnectedSamples();
  R.Arrivals = Sys->churn().arrivals();
  Out.DiameterSamples = Sys->diameterSamples().size();
  if (Config.KeepTrace)
    R.RecordedTrace = Sys->sim().takeTrace();
  return Out;
}

std::string perfbench::compareResults(const ExperimentResult &A,
                                      const ExperimentResult &B) {
  SimStats SA = A.Stats, SB = B.Stats;
  SA.BodyPoolHits = SB.BodyPoolHits = 0;
  SA.BodyPoolMisses = SB.BodyPoolMisses = 0;
  if (!(SA == SB))
    return "kernel counters differ (events " +
           std::to_string(A.Stats.EventsExecuted) + " vs " +
           std::to_string(B.Stats.EventsExecuted) + ")";
  if (A.ClassAdmissible != B.ClassAdmissible || A.QueryIssued != B.QueryIssued)
    return "admissibility or query issue differs";
  const QueryVerdict &VA = A.Verdict, &VB = B.Verdict;
  if (VA.valid() != VB.valid() || VA.Terminated != VB.Terminated ||
      VA.ResponseTime != VB.ResponseTime || VA.Aggregate != VB.Aggregate ||
      VA.IncludedCount != VB.IncludedCount ||
      VA.RequiredCount != VB.RequiredCount)
    return "verdict differs: " + VA.str() + " vs " + VB.str();
  if (A.MaxDiameter != B.MaxDiameter || A.Arrivals != B.Arrivals)
    return "diameter or arrival count differs";
  return "";
}
