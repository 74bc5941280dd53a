//===- Archive.cpp - Archive a trace and query it -------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "Archive.h"

#include "Spans.h"

#include "dyndist/runtime/TraceQuery.h"

#include <sys/stat.h>
#include <unistd.h>

using namespace dyndist;
using namespace perfbench;

KindQuery perfbench::queryKinds(const std::string &Path, unsigned Threads) {
  KindQuery Out;
  Span S("runtime.query");
  Clock::time_point Start = Clock::now();
  auto Src = TraceQuerySource::open(Path);
  if (!Src) {
    Out.Error = "cannot open archive for query: " + Src.error().str();
    return Out;
  }
  QueryOptions Opts;
  Opts.Threads = Threads;
  auto Table = queryGroupBy(**Src, TraceFilter(), GroupField::Kind, Opts);
  Out.Seconds = secondsSince(Start);
  if (!Table) {
    Out.Error = "group-by failed: " + Table.error().str();
    return Out;
  }
  Out.Events = (*Src)->totalEvents();
  Out.Error = parseKindTable(*Table, Out.Kinds);
  return Out;
}

uint64_t perfbench::fileBytes(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  return static_cast<uint64_t>(St.st_size);
}

std::string perfbench::archivePath(const std::string &Dir,
                                   const std::string &Tag) {
  return Dir + "/" + Tag + "-" + std::to_string(::getpid()) + ".dtc";
}
