//===- main.cpp - dyndist-perfbench command line --------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
//   dyndist-perfbench <workload> --seed N --seconds S --trace 0|1
//                     --workdir DIR [--smoke] [--counts] [--spans-out FILE]
//   dyndist-perfbench selftest
//
// Runs one workload (e1-grid, echo-100k, kernel-gossip-churn,
// register-stress) and prints one JSON line: per-sample metric values,
// operations attempted and failed, check failures, and (with --counts) the
// round's deterministic simulated counts. Worker threads number the CPUs
// this process may run on. perfbench/run.py turns the line into the
// benchmark's report.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "dyndist/runtime/SweepRunner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// CPUs this process may run on (its affinity mask), at least 1.
unsigned usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "dyndist-perfbench: %s\n"
               "usage: dyndist-perfbench <workload> --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--smoke] [--counts] [--spans-out FILE]\n"
               "       dyndist-perfbench selftest\n",
               Why);
  std::exit(2);
}

} // namespace

void Report::checkFailed(const std::string &What) {
  ++CheckFailures;
  note("CHECK FAILED: " + What);
}

void Report::merge(const Report &Other) {
  for (const auto &[Name, M] : Other.Metrics)
    for (double V : M.Samples)
      sample(Name, M.Unit, V);
  for (const auto &[Name, V] : Other.Counts)
    Counts[Name] += V;
  for (const std::string &N : Other.Notes)
    note(N);
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  CheckFailures += Other.CheckFailures;
}

void Report::note(const std::string &What) {
  if (Notes.size() < 20)
    Notes.push_back(What);
}

std::string Report::json() const {
  std::string Out = "{\"correct\":";
  Out += correct() ? "true" : "false";
  Out += ",\"attempted\":" + std::to_string(Attempted);
  Out += ",\"failed\":" + std::to_string(Failed);
  Out += ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE);
  Out += ",\"cxx_flags\":" + jsonString(PERFBENCH_CXX_FLAGS);
  Out += ",\"notes\":[";
  for (size_t I = 0; I != Notes.size(); ++I)
    Out += (I ? "," : "") + jsonString(Notes[I]);
  Out += "],\"metrics\":{";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    Out += (First ? "" : ",") + jsonString(Name) +
           ":{\"unit\":" + jsonString(M.Unit) + ",\"samples\":[";
    for (size_t I = 0; I != M.Samples.size(); ++I)
      Out += (I ? "," : "") + jsonNumber(M.Samples[I]);
    Out += "]}";
    First = false;
  }
  Out += "},\"counts\":{";
  First = true;
  for (const auto &[Name, V] : Counts) {
    Out += (First ? "" : ",") + jsonString(Name) + ":" + std::to_string(V);
    First = false;
  }
  return Out + "}}";
}

uint64_t perfbench::subSeed(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  return dyndist::deriveSweepSeed(dyndist::deriveSweepSeed(Seed, Stream),
                                  Index);
}

double perfbench::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

int main(int argc, char **argv) {
  if (argc < 2)
    usage("missing workload");
  if (std::strcmp(argv[1], "selftest") == 0)
    return runSelfTest() == 0 ? 0 : 1;

  Options O;
  O.Workload = argv[1];
  O.Threads = usableCpus();
  std::string SpansOut;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    auto value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(("missing value after " + A).c_str());
      return argv[++I];
    };
    char *End = nullptr;
    if (A == "--seed") {
      std::string V = value();
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed takes a whole number");
      HaveSeed = true;
    } else if (A == "--seconds") {
      std::string V = value();
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds >= 0) || O.Seconds > 3600)
        usage("--seconds takes a number in [0, 3600]");
    } else if (A == "--trace") {
      std::string V = value();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--workdir") {
      O.WorkDir = value();
    } else if (A == "--spans-out") {
      SpansOut = value();
    } else if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--counts") {
      O.CountsOnly = true;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveSeed || (!HaveTrace && !O.CountsOnly))
    usage("--seed and --trace are required");

  Report R;
  if (O.Workload == "e1-grid")
    runE1Grid(O, R);
  else if (O.Workload == "echo-100k")
    runEcho100k(O, R);
  else if (O.Workload == "kernel-gossip-churn")
    runKernelGossipChurn(O, R);
  else if (O.Workload == "register-stress")
    runRegisterStress(O, R);
  else
    usage(("unknown workload " + O.Workload).c_str());

  if (!O.Trace && !O.CountsOnly)
    R.sample("peak_rss_mb", "MiB", peakRssMb());
  if (O.Trace && !SpansOut.empty() && !writeSpans(SpansOut))
    R.checkFailed("cannot write spans to " + SpansOut);
  std::printf("%s\n", R.json().c_str());
  return 0;
}
