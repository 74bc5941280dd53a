//===- Spans.cpp - In-memory spans of the traced run ----------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

struct SpanRecord {
  const char *Name;
  uint64_t Id;
  uint64_t Parent; ///< 0 for a root span.
  uint64_t Root;   ///< Id of the root span this one belongs to.
  uint64_t Thread;
  Clock::time_point Begin;
  Clock::time_point End;
};

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};
std::mutex Lock;
std::vector<SpanRecord> Records; // Guarded by Lock.
const Clock::time_point Epoch = Clock::now();

thread_local uint64_t CurrentSpan = 0;
thread_local uint64_t CurrentRoot = 0;

uint64_t threadTag() {
  return std::hash<std::thread::id>()(std::this_thread::get_id());
}

double seconds(Clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

} // namespace

void perfbench::setSpansEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

bool perfbench::spansEnabled() {
  return Enabled.load(std::memory_order_relaxed);
}

Span::Span(const char *Name)
    : Name(Name), Active(spansEnabled()) {
  if (!Active)
    return;
  Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Parent = CurrentSpan;
  Root = Parent ? CurrentRoot : Id;
  CurrentSpan = Id;
  CurrentRoot = Root;
  Begin = Clock::now();
}

Span::~Span() {
  if (!Active)
    return;
  Clock::time_point End = Clock::now();
  CurrentSpan = Parent;
  if (!Parent)
    CurrentRoot = 0;
  std::lock_guard<std::mutex> G(Lock);
  Records.push_back({Name, Id, Parent, Root, threadTag(), Begin, End});
}

double perfbench::spanTotal(const std::string &Name) {
  std::lock_guard<std::mutex> G(Lock);
  double Sum = 0;
  for (const SpanRecord &R : Records)
    if (Name == R.Name)
      Sum += seconds(R.End - R.Begin);
  return Sum;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> G(Lock);
  for (const SpanRecord &R : Records)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"root\":%llu,"
                 "\"thread\":%llu,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 R.Name, (unsigned long long)R.Id,
                 (unsigned long long)R.Parent, (unsigned long long)R.Root,
                 (unsigned long long)R.Thread, seconds(R.Begin - Epoch),
                 seconds(R.End - Epoch));
  return std::fclose(F) == 0;
}
