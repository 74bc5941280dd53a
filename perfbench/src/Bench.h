//===- Bench.h - Shared plumbing of the dyndist benchmark -------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the result report, and timing helpers shared by the four
/// workloads. A workload drives the library only through its public entry
/// points and writes what it measured into a Report: per-sample metric
/// values (run.py takes their median and quartiles), the number of
/// operations attempted and failed, and any correctness-check failure.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// What the benchmark was asked to do.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the measured phase; whole rounds run until it has elapsed.
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Worker threads for sweeps, trace queries and the K=nproc reference:
  /// the CPUs the process may run on.
  unsigned Threads = 1;
  /// Reduced-size pass: small inputs, one round, every check.
  bool Smoke = false;
  /// Run one round untimed and report its deterministic simulated counts.
  bool CountsOnly = false;
  /// Directory for archives and the span file (inside the checkout).
  std::string WorkDir = ".";
};

/// Everything one invocation reports.
class Report {
public:
  /// Adds one sample of a metric.
  void sample(const std::string &Name, const std::string &Unit, double V) {
    Metric &M = Metrics[Name];
    M.Unit = Unit;
    M.Samples.push_back(V);
  }

  /// Records a failed correctness check: the run is no longer correct.
  void checkFailed(const std::string &What);

  /// Records \p N operations attempted, \p Bad of which failed.
  void operations(uint64_t N, uint64_t Bad) {
    Attempted += N;
    Failed += Bad;
  }

  /// Records a note for the failure log (first few kept).
  void note(const std::string &What);

  /// Adds everything \p Other recorded (a concurrent copy's report).
  void merge(const Report &Other);

  /// A deterministic simulated count (the `counts` command prints these).
  void count(const std::string &Name, uint64_t V) { Counts[Name] += V; }

  bool correct() const { return CheckFailures == 0; }
  uint64_t checkFailures() const { return CheckFailures; }

  /// The machine-readable form run.py parses (one line of JSON).
  std::string json() const;

private:
  struct Metric {
    std::string Unit;
    std::vector<double> Samples;
  };
  std::map<std::string, Metric> Metrics;
  std::map<std::string, uint64_t> Counts;
  std::vector<std::string> Notes;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t CheckFailures = 0;
};

/// Per-input seed derived from the run's seed: a pure function of its
/// arguments (the library's SplitMix64 sweep derivation).
uint64_t subSeed(uint64_t Seed, uint64_t Stream, uint64_t Index);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Runs \p Round until \p Seconds have elapsed (at least \p MinRounds
/// times) and returns the number of rounds run.
template <typename Fn>
uint64_t runRounds(double Seconds, uint64_t MinRounds, Fn &&Round) {
  Clock::time_point Start = Clock::now();
  uint64_t N = 0;
  while (N < MinRounds || secondsSince(Start) < Seconds) {
    Round(N);
    ++N;
  }
  return N;
}

/// Takes \p Times setup_s samples in a row, each the seconds \p SetUp
/// returns. A set-up is short beside a round and its time is noisy (page
/// faults), so each round takes several samples.
template <typename Fn>
void sampleSetup(Report &R, unsigned Times, Fn &&SetUp) {
  for (unsigned K = 0; K != Times; ++K)
    R.sample("setup_s", "s", SetUp());
}

/// How many independent copies of a single-threaded workload run at once:
/// one per worker thread, at most 4 to bound memory. On a host whose cores
/// change speed independently, the copies average those changes out.
inline unsigned copiesFor(const Options &O) {
  return std::min(O.Threads, 4u);
}

/// Runs \p Body(0) ... \p Body(N-1) at once, one thread each, and returns
/// the wall time until the last has finished.
template <typename Fn> double runCopies(unsigned N, Fn &&Body) {
  Clock::time_point Start = Clock::now();
  {
    std::vector<std::jthread> Threads;
    for (unsigned I = 1; I < N; ++I)
      Threads.emplace_back([&Body, I] { Body(I); });
    Body(0);
  }
  return secondsSince(Start);
}

/// Runs \p First and \p Second, swapping their order on odd iterations
/// \p N, so neither always runs on caches the other warmed.
template <typename A, typename B>
void alternate(uint64_t N, A &&First, B &&Second) {
  if (N % 2) {
    Second();
    First();
  } else {
    First();
    Second();
  }
}

// Workload entry points.
void runE1Grid(const Options &O, Report &R);
void runEcho100k(const Options &O, Report &R);
void runKernelGossipChurn(const Options &O, Report &R);
void runRegisterStress(const Options &O, Report &R);

/// Rejects deliberately wrong inputs with every check; returns failures.
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
