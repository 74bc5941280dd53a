//===- KernelGossipChurn.cpp - Workload kernel-gossip-churn ---------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// runKernelLoad at n=10^5 with gossip timers (period 4, fanout 2) and one
// crash/respawn every 25 ticks, its Full trace streamed into a columnar
// archive, then grouped by kind. Topology, protocols and checkers are
// bypassed: this isolates dispatch, trace encoding and the query scan.
// One round is one such load, archive, query and check.
//
//===----------------------------------------------------------------------===//

#include "Archive.h"
#include "Bench.h"
#include "Checks.h"
#include "Spans.h"

#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/sim/TraceColumnar.h"

#include <cstdio>

using namespace dyndist;
using namespace perfbench;

namespace {

KernelLoadConfig loadConfig(uint64_t Seed, bool Smoke) {
  KernelLoadConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Processes = Smoke ? 2000 : 100000;
  Cfg.Horizon = 60;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;
  return Cfg;
}

/// Kernel counters with the cumulative allocation-economy ones cleared.
SimStats schedule(SimStats S) {
  S.BodyPoolHits = S.BodyPoolMisses = S.InlineFnHeapFallbacks = 0;
  return S;
}

struct LoadRound {
  KernelLoadResult R;
  KindQuery Q;
  uint64_t Bytes = 0;
  double Wall = 0;
};

/// Runs one load with its trace streamed to \p Path, queries the archive
/// and checks it.
LoadRound runRound(const KernelLoadConfig &Base, const std::string &Path,
                   unsigned Threads, Report &Rep) {
  LoadRound Out;
  Clock::time_point T0 = Clock::now();
  auto Fail = [&](const std::string &What) {
    Rep.checkFailed("kernel-gossip-churn: " + What);
  };
  ColumnarTraceWriter Writer;
  if (Status S = Writer.open(Path); !S) {
    Fail("cannot open archive: " + S.error().str());
    return Out;
  }
  KernelLoadConfig Cfg = Base;
  Cfg.Sink = &Writer;
  {
    Span Sp("sim.kernel_run");
    Out.R = runKernelLoad(Cfg, TraceLevel::Full);
  }
  {
    Span Sp("sim.archive_write");
    if (Status S = Writer.close(); !S) {
      Fail("archive close failed: " + S.error().str());
      return Out;
    }
  }
  Out.Bytes = fileBytes(Path);
  Out.Q = queryKinds(Path, Threads);
  if (!Out.Q.Error.empty()) {
    Fail(Out.Q.Error);
    return Out;
  }
  KindCounts Own;
  uint64_t Events = 0;
  {
    Span Sp("bench.check_scan");
    if (std::string E = countArchiveKinds(Path, Own, Events); !E.empty()) {
      Fail(E);
      return Out;
    }
  }
  std::remove(Path.c_str());
  Out.Wall = secondsSince(T0);

  const SimStats &St = Out.R.Stats;
  if (std::string E = compareMessageCounts(Own, St); !E.empty())
    Fail(E);
  if (Own != Out.Q.Kinds || Events != Out.Q.Events)
    Fail("group-by counts differ from the benchmark's own scan");
  if (Events != Writer.eventsWritten())
    Fail("archive holds " + std::to_string(Events) + " events, writer wrote " +
         std::to_string(Writer.eventsWritten()));
  if (std::string E = checkChurnCounts(Own, Base.Processes, Base.Horizon,
                                       Base.ChurnEvery);
      !E.empty())
    Fail(E);
  return Out;
}

/// Times an untraced load (no sink) at shard count \p Shards.
KernelLoadResult runUntraced(KernelLoadConfig Cfg, unsigned Shards,
                             double &Seconds) {
  Cfg.Shards = Shards;
  Clock::time_point T0 = Clock::now();
  KernelLoadResult R = runKernelLoad(Cfg, TraceLevel::Off);
  Seconds = secondsSince(T0);
  return R;
}

} // namespace

void perfbench::runKernelGossipChurn(const Options &O, Report &Rep) {
  const std::string Path = archivePath(O.WorkDir, "kernel-gossip-churn");
  auto configFor = [&](uint64_t Round) {
    return loadConfig(subSeed(O.Seed, 3, Round), O.Smoke);
  };
  auto judged = [&](auto &&Body) {
    uint64_t Before = Rep.checkFailures();
    Body();
    Rep.operations(1, Rep.checkFailures() > Before ? 1 : 0);
  };

  if (O.CountsOnly) {
    judged([&] {
      LoadRound L = runRound(configFor(0), Path, O.Threads, Rep);
      const SimStats &S = L.R.Stats;
      Rep.count("events", S.EventsExecuted);
      Rep.count("messages_sent", S.MessagesSent);
      Rep.count("messages_delivered", S.MessagesDelivered);
      Rep.count("messages_dropped", S.MessagesDropped);
      Rep.count("payload_units", S.PayloadUnits);
      Rep.count("timers_fired", S.TimersFired);
      Rep.count("diameter_samples", 0);
      Rep.count("archive_events", L.Q.Events);
    });
    return;
  }

  if (!O.Trace) {
    // Each round runs copiesFor(O) independent loads at once, one per
    // thread, each with its own seed, archive, query and checks.
    const unsigned Copies = copiesFor(O);
    runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
      // Set-up: each copy's population alone (its load stopped at time 0).
      // runKernelLoad builds its population inside the call, so wall_s
      // includes that construction too.
      sampleSetup(Rep, 4, [&] {
        return runCopies(Copies, [&](unsigned I) {
          KernelLoadConfig Population = configFor(16 * N + I);
          Population.Horizon = 0;
          double S = 0;
          runUntraced(Population, 0, S);
        });
      });
      std::vector<Report> Reps(Copies);
      std::vector<uint64_t> Events(Copies, 0);
      double Wall = runCopies(Copies, [&](unsigned I) {
        Events[I] = runRound(configFor(16 * N + I),
                             archivePath(O.WorkDir, "kernel-gossip-churn-" +
                                                        std::to_string(I)),
                             1, Reps[I])
                        .R.Stats.EventsExecuted;
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

  // Traced run: per iteration, the plain round (untraced reference) and the
  // same round under spans, in alternating order; then the same load
  // untraced at trace level Off, and on the sharded engine at K=1 and at
  // K=nproc.
  runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
    KernelLoadConfig Cfg = configFor(N);
    const char *Names[] = {"sim.kernel_run", "sim.archive_write",
                           "runtime.query"};
    LoadRound Plain, Traced;
    double Spent[3];
    alternate(
        N,
        [&] {
          judged([&] { Plain = runRound(Cfg, Path, O.Threads, Rep); });
        },
        [&] {
          for (int I = 0; I != 3; ++I)
            Spent[I] = -spanTotal(Names[I]);
          setSpansEnabled(true);
          {
            Span Root("bench.kernel_round");
            Traced = runRound(Cfg, Path, O.Threads, Rep);
          }
          setSpansEnabled(false);
          for (int I = 0; I != 3; ++I)
            Spent[I] += spanTotal(Names[I]);
        });

    double OffS = 0, K1S = 0, KmaxS = 0;
    KernelLoadResult Off = runUntraced(Cfg, 0, OffS);
    KernelLoadResult K1 = runUntraced(Cfg, 1, K1S);
    KernelLoadResult Kmax = runUntraced(Cfg, O.Threads, KmaxS);
    if (!(schedule(Off.Stats) == schedule(Traced.R.Stats)))
      Rep.checkFailed("kernel-gossip-churn: trace level changed the "
                      "schedule counters");
    if (!(schedule(K1.Stats) == schedule(Kmax.Stats)))
      Rep.checkFailed("kernel-gossip-churn: sharded schedule differs "
                      "between K=1 and K=" + std::to_string(O.Threads));

    const SimStats &S = Traced.R.Stats;
    Rep.sample("sim.events", "count", double(S.EventsExecuted));
    Rep.sample("sim.timers_fired", "count", double(S.TimersFired));
    if (S.BodyPoolHits + S.BodyPoolMisses)
      Rep.sample("sim.body_pool_hit_ratio", "ratio",
                 double(S.BodyPoolHits) /
                     double(S.BodyPoolHits + S.BodyPoolMisses));
    Rep.sample("sim.kernel_trace_off_events_per_s", "events/s",
               Off.Stats.EventsExecuted / OffS);
    Rep.sample("sim.trace_record_s", "s", Spent[0] - OffS);
    Rep.sample("sim.sharded_k1_events_per_s", "events/s",
               K1.Stats.EventsExecuted / K1S);
    Rep.sample("sim.sharded_kmax_events_per_s", "events/s",
               Kmax.Stats.EventsExecuted / KmaxS);
    Rep.sample("sim.archive_write_s", "s", Spent[1]);
    Rep.sample("runtime.query_s", "s", Spent[2]);
    if (Traced.Q.Events) {
      Rep.sample("sim.archive_bytes_per_event", "B/event",
                 double(Traced.Bytes) / double(Traced.Q.Events));
      Rep.sample("runtime.query_events_per_s", "events/s",
                 double(Traced.Q.Events) / Traced.Q.Seconds);
    }
    Rep.sample("bench.trace_overhead_s", "s", Traced.Wall - Plain.Wall);
    Rep.sample("bench.traced_wall_s", "s", Traced.Wall);
  });
}
