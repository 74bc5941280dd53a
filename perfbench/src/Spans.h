//===- Spans.h - In-memory spans of the traced run --------------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. A Span placed around a call into a
/// library module records its name, start, end and the enclosing span on
/// the same thread; spans opened under one root (one query run, one kernel
/// load, one register history) share that root's id. Records stay in memory
/// and are written out once, when the run ends. With recording off (every
/// end-to-end run) a Span costs one relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Bench.h"

#include <atomic>
#include <string>

namespace perfbench {

/// Turns recording on or off for every thread.
void setSpansEnabled(bool On);
bool spansEnabled();

/// Sum of the durations of the spans named \p Name, in seconds.
double spanTotal(const std::string &Name);

/// Writes every span as one JSON object per line; false on I/O error.
bool writeSpans(const std::string &Path);

/// RAII span around one call into a module.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  bool Active;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Root = 0;
  Clock::time_point Begin;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
