//===- bench/Harness.cpp - Shared evaluation harness ----------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ssa/SSAConstruction.h"
#include "workload/CFGGenerator.h"
#include "workload/ProgramGenerator.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

using namespace ssalive;
using namespace ssalive::bench;

std::unique_ptr<Function>
ssalive::bench::synthesizeProcedure(const SpecProfile &P, RandomEngine &Rng) {
  CFGGenOptions GOpts;
  GOpts.TargetBlocks = sampleBlockCount(P, Rng);
  // Irreducibility is rare but clustered in the paper's corpus: 7 of 4823
  // functions (0.145%) carried all 60 irreducible edges, i.e. ~8.6 per
  // affected function. Roll ~0.15% of procedures as goto-heavy.
  if (Rng.nextBelow(10000) < 15)
    GOpts.GotoEdges = 6 + Rng.nextBelow(9);
  CFG G = generateCFG(GOpts, Rng);

  ProgramGenOptions POpts;
  POpts.ReadsAtMost1 = P.PctUsesLe1;
  POpts.ReadsAtMost2 = P.PctUsesLe2;
  POpts.ReadsAtMost3 = P.PctUsesLe3;
  POpts.ReadsAtMost4 = P.PctUsesLe4;
  POpts.MaxReads = P.MaxUses;
  auto F = generateProgram(G, POpts, Rng);
  constructSSA(*F, PhiPlacement::Pruned);
  return F;
}

unsigned ssalive::bench::parseScalePercent(int Argc, char **Argv,
                                           unsigned Default) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--scale=", 8) == 0) {
      int V = std::atoi(Arg + 8);
      if (V >= 1 && V <= 100)
        return static_cast<unsigned>(V);
      std::fprintf(stderr, "warning: ignoring invalid --scale '%s'\n", Arg);
    }
  }
  return Default;
}

unsigned ssalive::bench::scaledProcedures(const SpecProfile &P,
                                          unsigned ScalePercent) {
  unsigned N = (P.Procedures * ScalePercent + 99) / 100;
  return N < 5 ? 5 : N;
}

JsonRecord &JsonRecord::str(const std::string &Key, const std::string &V) {
  std::string Escaped;
  for (char C : V) {
    if (C == '"' || C == '\\')
      Escaped += '\\';
    Escaped += C;
  }
  Fields.emplace_back(Key, "\"" + Escaped + "\"");
  return *this;
}

JsonRecord &JsonRecord::num(const std::string &Key, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Fields.emplace_back(Key, Buf);
  return *this;
}

JsonRecord &JsonRecord::num(const std::string &Key, std::uint64_t V) {
  Fields.emplace_back(Key, std::to_string(V));
  return *this;
}

std::string JsonRecord::render() const {
  std::string Out = "{";
  for (size_t I = 0; I != Fields.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += "\"" + Fields[I].first + "\": " + Fields[I].second;
  }
  return Out + "}";
}

/// The first "model name" of /proc/cpuinfo, or "unknown".
static std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.compare(0, 10, "model name") != 0)
      continue;
    std::size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      break;
    std::size_t Begin = Line.find_first_not_of(" \t", Colon + 1);
    return Begin == std::string::npos ? "unknown" : Line.substr(Begin);
  }
  return "unknown";
}

std::string
ssalive::bench::writeBenchJson(const std::string &Name,
                               const std::vector<JsonRecord> &Records) {
  std::string Path = "BENCH_" + Name + ".json";
  std::ofstream Out(Path);
  if (!Out)
    return "";
  JsonRecord Host;
  Host.num("nproc", std::uint64_t(std::thread::hardware_concurrency()))
      .str("cpu_model", cpuModel())
      .str("build_type", SSALIVE_BUILD_TYPE);
  Out << "{\"bench\": \"" << Name << "\", \"host\": " << Host.render()
      << ", \"records\": [\n";
  for (size_t I = 0; I != Records.size(); ++I)
    Out << "  " << Records[I].render() << (I + 1 != Records.size() ? ",\n"
                                                                   : "\n");
  Out << "]}\n";
  return Out ? Path : "";
}

TablePrinter::TablePrinter(std::vector<std::string> Headers)
    : Headers(std::move(Headers)) {}

void TablePrinter::addRow(std::vector<std::string> Cells) {
  Rows.push_back(std::move(Cells));
}

std::string TablePrinter::fmt(double V, unsigned Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, V);
  return Buf;
}

void TablePrinter::print() const {
  std::vector<size_t> Width(Headers.size());
  for (size_t C = 0; C != Headers.size(); ++C)
    Width[C] = Headers[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C != Row.size() && C != Width.size(); ++C)
      Width[C] = std::max(Width[C], Row[C].size());

  auto printRow = [&Width](const std::vector<std::string> &Cells,
                           bool LeftFirst) {
    for (size_t C = 0; C != Cells.size() && C != Width.size(); ++C) {
      if (C == 0 && LeftFirst)
        std::printf("%-*s", static_cast<int>(Width[C]), Cells[C].c_str());
      else
        std::printf("  %*s", static_cast<int>(Width[C]), Cells[C].c_str());
    }
    std::printf("\n");
  };

  printRow(Headers, true);
  size_t Total = 0;
  for (size_t C = 0; C != Width.size(); ++C)
    Total += Width[C] + 2;
  for (size_t I = 0; I + 2 < Total; ++I)
    std::printf("-");
  std::printf("\n");
  for (const auto &Row : Rows)
    printRow(Row, true);
}
