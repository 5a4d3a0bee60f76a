//===- bench/Harness.h - Shared evaluation harness --------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the table reproductions: synthesizing one
/// procedure of a SPEC-profile workload (CFG -> program -> strict SSA) and
/// formatting aligned text tables with paper-vs-measured rows.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_BENCH_HARNESS_H
#define SSALIVE_BENCH_HARNESS_H

#include "ir/Function.h"
#include "support/RandomEngine.h"
#include "workload/SpecProfile.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ssalive::bench {

/// One synthesized procedure of a profile's corpus, in strict SSA form.
/// A small fraction of procedures (matching the paper's 7 of 4823) carry
/// injected goto edges and may be irreducible.
std::unique_ptr<Function> synthesizeProcedure(const SpecProfile &P,
                                              RandomEngine &Rng);

/// Parses "--scale=<percent>" (1..100) from argv; the harnesses synthesize
/// ceil(Procedures * percent / 100) procedures per benchmark. Default 100.
unsigned parseScalePercent(int Argc, char **Argv, unsigned Default = 100);

/// Scaled procedure count, at least 5.
unsigned scaledProcedures(const SpecProfile &P, unsigned ScalePercent);

/// One flat JSON object of string/number fields, built in insertion order.
/// The benches emit their measurements through this so the perf trajectory
/// is machine-readable across PRs (BENCH_*.json files next to the binary).
class JsonRecord {
public:
  JsonRecord &str(const std::string &Key, const std::string &V);
  JsonRecord &num(const std::string &Key, double V);
  JsonRecord &num(const std::string &Key, std::uint64_t V);

  /// The record as a JSON object literal.
  std::string render() const;

private:
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Writes {"bench": <name>, "host": {...}, "records": [<records>]} to
/// BENCH_<name>.json in the working directory. "host" records where the
/// numbers came from — nproc, the CPU model name and the build type — so
/// tools/bench-compare can flag cross-host comparisons. Returns the path
/// written, or "" on I/O failure.
std::string writeBenchJson(const std::string &Name,
                           const std::vector<JsonRecord> &Records);

/// Minimal aligned-column table printer (right-aligned cells).
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Headers);

  void addRow(std::vector<std::string> Cells);
  /// Renders to stdout, padding columns to their widest cell.
  void print() const;

  /// Fixed-point formatting helper.
  static std::string fmt(double V, unsigned Decimals = 2);

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace ssalive::bench

#endif // SSALIVE_BENCH_HARNESS_H
