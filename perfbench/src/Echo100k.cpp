//===- Echo100k.cpp - Workload echo-100k: one large query -----------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// One runQueryExperiment in a finite-arrival x D-unbounded class with 10^5
// initial members: churn quiesces before the query is issued, the members
// run echo (the oracle's choice for the cell) and the diameter monitor is
// off. The recorded Full trace is archived to a columnar file and grouped
// by kind. One round is one such run, archive, query and check.
//
//===----------------------------------------------------------------------===//

#include "Archive.h"
#include "Assembly.h"
#include "Bench.h"
#include "Checks.h"
#include "Spans.h"

#include "dyndist/sim/TraceColumnar.h"

#include <cstdio>

using namespace dyndist;
using namespace perfbench;

namespace {

ExperimentConfig echoConfig(uint64_t Seed, bool Smoke) {
  const size_t N = Smoke ? 2000 : 100000;
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = SystemClass{ArrivalModel::finiteArrival(N + 2000, false),
                          KnowledgeModel::unboundedDiameter()};
  Cfg.InitialMembers = N;
  Cfg.Churn.JoinRate = 0.5;
  Cfg.Churn.MeanSession = 400;
  Cfg.Churn.Horizon = 100;
  Cfg.Churn.QuiesceAt = 100;
  Cfg.QueryAt = 150;
  Cfg.Horizon = 400;
  Cfg.DiameterSampleEvery = 0;
  Cfg.KeepTrace = true;
  return Cfg;
}

/// Archives \p R's trace, queries it and checks everything the workload
/// promises; returns the query result (for its timing).
KindQuery archiveAndCheck(const ExperimentResult &R, const std::string &Path,
                          unsigned Threads, Report &Rep) {
  KindQuery Q;
  if (!R.RecordedTrace) {
    Rep.checkFailed("echo-100k: no trace recorded");
    return Q;
  }
  {
    Span S("sim.archive_write");
    Status W = writeColumnarTraceFile(*R.RecordedTrace, Path);
    if (!W) {
      Rep.checkFailed("echo-100k: archive write failed: " + W.error().str());
      return Q;
    }
  }
  Q = queryKinds(Path, Threads);
  if (!Q.Error.empty()) {
    Rep.checkFailed("echo-100k: " + Q.Error);
    return Q;
  }

  QueryRecount C;
  if (std::string E = recountQuery(Path, InvalidProcess, C); !E.empty()) {
    Rep.checkFailed("echo-100k: " + E);
    return Q;
  }
  for (const std::string &E : compareRecount(R, C))
    Rep.checkFailed("echo-100k: " + E);
  if (C.Kinds != Q.Kinds || C.Events != Q.Events)
    Rep.checkFailed("echo-100k: group-by counts differ from the benchmark's "
                    "own scan");
  return Q;
}

} // namespace

void perfbench::runEcho100k(const Options &O, Report &Rep) {
  const std::string Path = archivePath(O.WorkDir, "echo-100k");
  uint64_t Round = 0;
  auto nextConfig = [&] {
    return echoConfig(subSeed(O.Seed, 1, Round++), O.Smoke);
  };

  if (O.CountsOnly) {
    ExperimentConfig Cfg = nextConfig();
    ExperimentResult R = runQueryExperiment(Cfg);
    KindQuery Q = archiveAndCheck(R, Path, O.Threads, Rep);
    std::remove(Path.c_str());
    Rep.operations(1, Rep.correct() ? 0 : 1);
    Rep.count("events", R.Stats.EventsExecuted);
    Rep.count("messages_sent", R.Stats.MessagesSent);
    Rep.count("messages_delivered", R.Stats.MessagesDelivered);
    Rep.count("messages_dropped", R.Stats.MessagesDropped);
    Rep.count("payload_units", R.Stats.PayloadUnits);
    Rep.count("timers_fired", R.Stats.TimersFired);
    Rep.count("diameter_samples", 0);
    Rep.count("archive_events", Q.Events);
    return;
  }

  if (!O.Trace) {
    // Each round runs copiesFor(O) independent systems at once, one per
    // thread, each with its own seed, archive, query and checks.
    // runQueryExperiment builds its system inside the call, so wall_s
    // includes that construction; setup_s times the same construction
    // apart, on systems thrown away before the round.
    const unsigned Copies = copiesFor(O);
    runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
      sampleSetup(Rep, 2, [&] {
        std::vector<QueryRun> Shells(Copies); // Torn down after timing.
        return runCopies(Copies, [&](unsigned I) {
          Shells[I].acquire(
              echoConfig(subSeed(O.Seed, 2, 16 * N + I), O.Smoke));
        });
      });
      std::vector<Report> Reps(Copies);
      std::vector<uint64_t> Events(Copies, 0);
      double Wall = runCopies(Copies, [&](unsigned I) {
        ExperimentResult R = runQueryExperiment(
            echoConfig(subSeed(O.Seed, 1, 16 * N + I), O.Smoke));
        std::string P =
            archivePath(O.WorkDir, "echo-100k-" + std::to_string(I));
        archiveAndCheck(R, P, 1, Reps[I]);
        std::remove(P.c_str());
        Events[I] = R.Stats.EventsExecuted;
      });
      uint64_t Total = 0;
      for (unsigned I = 0; I != Copies; ++I) {
        Rep.merge(Reps[I]);
        Rep.operations(1, Reps[I].correct() ? 0 : 1);
        Total += Events[I];
      }
      Rep.sample("wall_s", "s", Wall);
      Rep.sample("runs_per_s", "runs/s", Copies / Wall);
      Rep.sample("ops_per_s", "ops/s", Total / Wall);
    });
    return;
  }

  // Traced run: per iteration, the plain round (checked, and the reference
  // the assembled round must reproduce); then the same configuration
  // assembled phase by phase with spans off and with spans on, in
  // alternating order, whose difference is the spans' cost.
  runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
    ExperimentConfig Cfg = nextConfig();
    const char *Names[] = {"aggregation.arena_acquire", "arrival.churn_phase",
                           "aggregation.query_phase", "core.verdict",
                           "sim.archive_write", "runtime.query"};
    uint64_t FailuresBefore = Rep.checkFailures();
    ExperimentResult Plain = runQueryExperiment(Cfg);
    archiveAndCheck(Plain, Path, O.Threads, Rep);
    std::remove(Path.c_str());
    Plain.RecordedTrace.reset();
    Rep.operations(1, Rep.checkFailures() > FailuresBefore ? 1 : 0);

    AssembledResult A;
    KindQuery Q;
    uint64_t Bytes = 0;
    // One assembled round; returns its wall time.
    auto assembled = [&] {
      Clock::time_point T0 = Clock::now();
      {
        Span Root("bench.echo_round");
        QueryRun Run;
        A = Run.run(Cfg);
        Q = archiveAndCheck(A.R, Path, O.Threads, Rep);
      }
      double Wall = secondsSince(T0);
      Bytes = fileBytes(Path);
      std::remove(Path.c_str());
      A.R.RecordedTrace.reset();
      if (std::string D = compareResults(Plain, A.R); !D.empty())
        Rep.checkFailed("echo-100k: assembled run differs from "
                        "runQueryExperiment: " + D);
      return Wall;
    };
    double UntracedWall = 0, TracedWall = 0, Spent[6];
    alternate(
        N, [&] { UntracedWall = assembled(); },
        [&] {
          for (int I = 0; I != 6; ++I)
            Spent[I] = -spanTotal(Names[I]);
          setSpansEnabled(true);
          TracedWall = assembled();
          setSpansEnabled(false);
          for (int I = 0; I != 6; ++I)
            Spent[I] += spanTotal(Names[I]);
        });

    const SimStats &S = A.R.Stats;
    Rep.sample("core.construct_s", "s", Spent[0]);
    Rep.sample("arrival.churn_phase_s", "s", Spent[1]);
    Rep.sample("aggregation.echo_wave_s", "s", Spent[2]);
    Rep.sample("core.verdict_s", "s", Spent[3]);
    Rep.sample("sim.archive_write_s", "s", Spent[4]);
    Rep.sample("runtime.query_s", "s", Spent[5]);
    if (Q.Events) {
      Rep.sample("sim.archive_bytes_per_event", "B/event",
                 double(Bytes) / double(Q.Events));
      Rep.sample("runtime.query_events_per_s", "events/s",
                 double(Q.Events) / Q.Seconds);
    }
    Rep.sample("aggregation.payload_units", "count", double(S.PayloadUnits));
    Rep.sample("sim.events", "count", double(S.EventsExecuted));
    Rep.sample("sim.timers_fired", "count", double(S.TimersFired));
    if (S.BodyPoolHits + S.BodyPoolMisses)
      Rep.sample("sim.body_pool_hit_ratio", "ratio",
                 double(S.BodyPoolHits) /
                     double(S.BodyPoolHits + S.BodyPoolMisses));
    Rep.sample("bench.trace_overhead_s", "s", TracedWall - UntracedWall);
    Rep.sample("bench.traced_wall_s", "s", TracedWall);
  });
}
