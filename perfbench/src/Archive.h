//===- Archive.h - Archive a trace and query it -----------------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The archive half of the echo-100k and kernel-gossip-churn workloads: a
/// group-by over a columnar trace file through the runtime's query engine,
/// and the file's size.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ARCHIVE_H
#define PERFBENCH_ARCHIVE_H

#include "Checks.h"

#include <string>

namespace perfbench {

/// Result of a group-by-kind query over an archive.
struct KindQuery {
  std::string Error;  ///< "" on success.
  double Seconds = 0; ///< Open plus queryGroupBy.
  uint64_t Events = 0; ///< Events the archive holds (scanned by the query).
  KindCounts Kinds{};  ///< The query's table, parsed.
};

/// Opens \p Path with TraceQuerySource and groups its events by kind on
/// \p Threads scan workers (span "runtime.query").
KindQuery queryKinds(const std::string &Path, unsigned Threads);

/// Size of \p Path in bytes (0 when missing).
uint64_t fileBytes(const std::string &Path);

/// Archive path for \p Tag under \p Dir, unique to this process.
std::string archivePath(const std::string &Dir, const std::string &Tag);

} // namespace perfbench

#endif // PERFBENCH_ARCHIVE_H
