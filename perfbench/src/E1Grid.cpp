//===- E1Grid.cpp - Workload e1-grid: the solvability matrix --------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Seven of the nine canonical class cells (n=60, b=28, D=10) over many
// seeds each, shaped exactly like bench_solvability's E1 sweep:
// runQueryExperiment with one SimArena per sweep worker, the diameter
// monitor on, Lifecycle tracing. One round is SeedsPerCell runs of every
// cell.
//
//===----------------------------------------------------------------------===//

#include "Assembly.h"
#include "Bench.h"
#include "Checks.h"
#include "Spans.h"

#include "dyndist/aggregation/SimArena.h"
#include "dyndist/runtime/SweepRunner.h"

#include <string>
#include <vector>

using namespace dyndist;
using namespace perfbench;

namespace {

constexpr uint64_t FiniteN = 60, B = 28, D = 10;
constexpr size_t SeedsPerCell = 128;

/// The canonical grid without the two cells in which the flood's TTL is
/// the known diameter bound D = 10 while churn goes on during the query
/// (M^b(28,known) x D<=10 and M^inf x D<=10). There a flood with TTL D can
/// miss a member that was up throughout the query: one run of the M^b cell
/// in about 10^5 did, on some seeds only, so its failure count would
/// differ from run to run.
std::vector<SystemClass> measuredGrid() {
  std::vector<SystemClass> Grid = canonicalClassGrid(FiniteN, B, D);
  std::erase_if(Grid, [](const SystemClass &C) {
    return C.Knowledge.Diameter == DiameterKnowledge::KnownBound &&
           C.Arrival.Kind != ArrivalKind::FiniteArrival;
  });
  return Grid;
}

/// bench_solvability's per-cell configuration.
ExperimentConfig cellConfig(const SystemClass &Class, uint64_t Seed,
                            bool Monitor) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = Class;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 400;
  Cfg.Churn.Horizon = 600;
  Cfg.QueryAt = 200;
  Cfg.Horizon = 900;
  if (Class.Arrival.Kind == ArrivalKind::FiniteArrival)
    Cfg.Churn.QuiesceAt = 150;
  if (Class.Arrival.Kind == ArrivalKind::InfiniteArrival &&
      Class.Knowledge.Diameter != DiameterKnowledge::KnownBound) {
    Cfg.Churn.JoinRate = 2.0;
    Cfg.Churn.MeanSession = 150;
    if (Class.Knowledge.Diameter == DiameterKnowledge::Unbounded)
      Cfg.Attach = AttachMode::Chain;
  }
  Cfg.Gossip.ReportAfter = 60;
  Cfg.Gossip.Rounds = 30;
  Cfg.Gossip.RoundEvery = 2;
  if (!Monitor)
    Cfg.DiameterSampleEvery = 0;
  return Cfg;
}

struct GridRun {
  ExperimentResult R;
  uint64_t Samples = 0; ///< Diameter samples (assembled runs only).
};

struct Round {
  std::vector<std::vector<GridRun>> Cells; ///< [cell][seed index]
  double Wall = 0;
};

/// One round of the grid through runQueryExperiment (or, when \p Assembled,
/// through QueryRun, whose spans record while spans are enabled), cell by
/// cell, seeds sharded over threads.
Round runRound(const std::vector<SystemClass> &Grid, uint64_t Seed,
               uint64_t RoundIndex, size_t Seeds, unsigned Threads,
               bool Monitor, bool Assembled) {
  Round Out;
  Clock::time_point Start = Clock::now();
  for (size_t C = 0; C != Grid.size(); ++C) {
    SweepConfig Sweep;
    Sweep.MasterSeed = subSeed(Seed, RoundIndex, C);
    Sweep.SeedCount = Seeds;
    Sweep.Threads = Threads;
    const SystemClass &Class = Grid[C];
    if (!Assembled) {
      Out.Cells.push_back(runSeedSweepWith<GridRun, SimArena>(
          Sweep, [&](SweepSeed S, SimArena &Arena) {
            GridRun G;
            G.R = runQueryExperiment(cellConfig(Class, S.Value, Monitor),
                                     &Arena);
            return G;
          }));
      continue;
    }
    const bool Gossip = paperVerdict(Class) == PaperVerdict::Unsolvable;
    Out.Cells.push_back(runSeedSweepWith<GridRun, QueryRun>(
        Sweep, [&](SweepSeed S, QueryRun &Q) {
          Span Run(Gossip ? "aggregation.gossip_run" : "aggregation.wave_run");
          AssembledResult A = Q.run(cellConfig(Class, S.Value, Monitor));
          GridRun G;
          G.R = std::move(A.R);
          G.Samples = A.DiameterSamples;
          return G;
        }));
  }
  Out.Wall = secondsSince(Start);
  return Out;
}

/// Applies the E1 checks to a round; returns its event count.
uint64_t checkRound(const std::vector<SystemClass> &Grid, const Round &Rd,
                    Report &Rep) {
  uint64_t Events = 0;
  for (size_t C = 0; C != Grid.size(); ++C) {
    PaperVerdict Cell = paperVerdict(Grid[C]);
    bool Quiescent = Grid[C].Arrival.Kind == ArrivalKind::FiniteArrival;
    uint64_t Bad = 0, Invalid = 0;
    for (const GridRun &G : Rd.Cells[C]) {
      const ExperimentResult &R = G.R;
      Events += R.Stats.EventsExecuted;
      E1Run Run;
      Run.Admissible = R.ClassAdmissible;
      Run.QueryIssued = R.QueryIssued;
      Run.Valid = R.Verdict.valid();
      Run.NoInvention = !R.Verdict.Terminated || R.Verdict.NoInvention;
      Run.AggregateConsistent =
          !R.Verdict.Terminated || R.Verdict.AggregateConsistent;
      Invalid += !Run.Valid;
      std::string Why = e1RunFailure(Run, Cell, Quiescent);
      if (!Why.empty()) {
        ++Bad;
        Rep.note(Grid[C].name() + ": " + Why);
      }
    }
    Rep.operations(Rd.Cells[C].size(), Bad);
    // C3: an unsolvable cell must show the impossibility in some run.
    if (Cell == PaperVerdict::Unsolvable && Invalid == 0)
      Rep.checkFailed(Grid[C].name() +
                      ": unsolvable cell met the spec in every run");
  }
  return Events;
}

/// The assembled round must reproduce the plain one run for run.
void compareRounds(const std::vector<SystemClass> &Grid, const Round &Plain,
                   const Round &Assembled, Report &Rep) {
  for (size_t C = 0; C != Grid.size(); ++C)
    for (size_t I = 0; I != Plain.Cells[C].size(); ++I) {
      std::string Diff =
          compareResults(Plain.Cells[C][I].R, Assembled.Cells[C][I].R);
      if (!Diff.empty())
        Rep.checkFailed("assembled run differs from runQueryExperiment (" +
                        Grid[C].name() + "): " + Diff);
    }
}

void countRound(const Round &Rd, Report &Rep) {
  for (const auto &Cell : Rd.Cells)
    for (const GridRun &G : Cell) {
      const SimStats &S = G.R.Stats;
      Rep.count("events", S.EventsExecuted);
      Rep.count("messages_sent", S.MessagesSent);
      Rep.count("messages_delivered", S.MessagesDelivered);
      Rep.count("messages_dropped", S.MessagesDropped);
      Rep.count("payload_units", S.PayloadUnits);
      Rep.count("timers_fired", S.TimersFired);
      Rep.count("diameter_samples", G.Samples);
    }
}

/// Builds one fresh system per cell, as each sweep worker's arena does on
/// its first run, for 16 seeds sharded over the sweep workers; returns the
/// time per seed.
double setUpOnce(const std::vector<SystemClass> &Grid, uint64_t Seed,
                 unsigned Threads) {
  SweepConfig Sweep;
  Sweep.MasterSeed = Seed;
  Sweep.SeedCount = 16;
  Sweep.Threads = Threads;
  Clock::time_point Start = Clock::now();
  runSeedSweep<int>(Sweep, [&](SweepSeed S) {
    for (size_t C = 0; C != Grid.size(); ++C) {
      QueryRun Q;
      Q.acquire(cellConfig(Grid[C], subSeed(S.Value, 0, C), true));
    }
    return 0;
  });
  return secondsSince(Start) / Sweep.SeedCount;
}

} // namespace

void perfbench::runE1Grid(const Options &O, Report &Rep) {
  std::vector<SystemClass> Grid = measuredGrid();
  const size_t Seeds = SeedsPerCell;

  if (O.CountsOnly) {
    // One round, assembled step by step (for the diameter sample count)
    // and checked run for run against runQueryExperiment.
    Round Plain = runRound(Grid, O.Seed, 0, Seeds, O.Threads, true, false);
    Round Rd = runRound(Grid, O.Seed, 0, Seeds, O.Threads, true, true);
    compareRounds(Grid, Plain, Rd, Rep);
    countRound(Rd, Rep);
    checkRound(Grid, Plain, Rep);
    return;
  }

  if (!O.Trace) {
    runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
      sampleSetup(Rep, 4, [&] {
        return setUpOnce(Grid, subSeed(O.Seed, 6, N), O.Threads);
      });
      Clock::time_point T0 = Clock::now();
      Round Rd = runRound(Grid, O.Seed, N, Seeds, O.Threads, true, false);
      uint64_t Events = checkRound(Grid, Rd, Rep);
      double Wall = secondsSince(T0);
      Rep.sample("wall_s", "s", Wall);
      Rep.sample("runs_per_s", "runs/s", Grid.size() * Seeds / Wall);
      Rep.sample("ops_per_s", "ops/s", Events / Wall);
    });
    return;
  }

  // Traced run: per iteration, the plain round (checked, and the reference
  // the assembled rounds must reproduce run for run); the same seeds
  // assembled step by step with spans off and with spans on, in alternating
  // order, whose difference is the spans' cost; then the plain round with
  // the diameter monitor off.
  runRounds(O.Smoke ? 0 : O.Seconds, 1, [&](uint64_t N) {
    const char *Names[] = {"aggregation.gossip_run", "aggregation.wave_run",
                           "aggregation.arena_acquire", "core.verdict"};
    Round Plain = runRound(Grid, O.Seed, N, Seeds, O.Threads, true, false);
    Round Untraced, Traced;
    double Spent[4];
    alternate(
        N,
        [&] {
          Untraced = runRound(Grid, O.Seed, N, Seeds, O.Threads, true, true);
        },
        [&] {
          for (int I = 0; I != 4; ++I)
            Spent[I] = -spanTotal(Names[I]);
          setSpansEnabled(true);
          Traced = runRound(Grid, O.Seed, N, Seeds, O.Threads, true, true);
          setSpansEnabled(false);
          for (int I = 0; I != 4; ++I)
            Spent[I] += spanTotal(Names[I]);
        });
    checkRound(Grid, Plain, Rep);
    Round NoMonitor =
        runRound(Grid, O.Seed, N, Seeds, O.Threads, false, false);
    compareRounds(Grid, Plain, Traced, Rep);

    uint64_t Samples = 0, Payload = 0, Events = 0, Hits = 0, Misses = 0,
             Timers = 0;
    for (const auto &Cell : Traced.Cells)
      for (const GridRun &G : Cell) {
        Samples += G.Samples;
        Payload += G.R.Stats.PayloadUnits;
        Events += G.R.Stats.EventsExecuted;
        Hits += G.R.Stats.BodyPoolHits;
        Misses += G.R.Stats.BodyPoolMisses;
        Timers += G.R.Stats.TimersFired;
      }
    Rep.sample("core.monitor_s", "s", Plain.Wall - NoMonitor.Wall);
    Rep.sample("graph.diameter_samples", "count", double(Samples));
    Rep.sample("aggregation.gossip_cells_s", "s", Spent[0]);
    Rep.sample("aggregation.wave_cells_s", "s", Spent[1]);
    Rep.sample("aggregation.arena_acquire_s", "s", Spent[2]);
    Rep.sample("core.verdict_s", "s", Spent[3]);
    Rep.sample("aggregation.payload_units", "count", double(Payload));
    Rep.sample("sim.events", "count", double(Events));
    Rep.sample("sim.timers_fired", "count", double(Timers));
    if (Hits + Misses)
      Rep.sample("sim.body_pool_hit_ratio", "ratio",
                 double(Hits) / double(Hits + Misses));
    Rep.sample("bench.trace_overhead_s", "s", Traced.Wall - Untraced.Wall);
    Rep.sample("bench.traced_wall_s", "s", Traced.Wall);
  });
}
