// Shared helpers for the benchmark harnesses.
#pragma once

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/compiled_disclosure.hpp"
#include "graph/generators.hpp"

namespace gdp::bench {

// A memory field of this process's /proc/self/status ("VmHWM", "VmRSS")
// in bytes; 0 when the field is unavailable (non-Linux).
inline std::uint64_t ProcStatusBytes(const std::string& field) {
  std::ifstream status("/proc/self/status");
  const std::string key = field + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream ss(line.substr(key.size()));
      std::uint64_t kb = 0;
      ss >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

// Runs fn() once in a forked child and returns the child's peak resident
// set above its resident set at entry (VmHWM - VmRSS), in bytes: fn's own
// peak.  A forked child's high-water mark starts at its RSS at fork, so heap
// that earlier work left resident does not count.  malloc_trim(0) first
// hands the parent's free heap back to the kernel, so fn's allocations
// fault in new pages instead of reusing resident free chunks.  The child
// leaves by _exit, so it never flushes the parent's buffered output or
// runs on into the caller.  Returns 0 when the pipe, the fork or fn fails.
template <typename Fn>
std::uint64_t ForkedPeakAboveEntryBytes(Fn&& fn) {
  malloc_trim(0);
  int fds[2];
  if (pipe(fds) != 0) {
    return 0;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::uint64_t entry = ProcStatusBytes("VmRSS");
    try {
      fn();
    } catch (...) {
      _exit(1);
    }
    const std::uint64_t peak = ProcStatusBytes("VmHWM");
    const std::uint64_t above = peak > entry ? peak - entry : 0;
    const bool sent = write(fds[1], &above, sizeof above) == sizeof above;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  std::uint64_t above = 0;
  if (pid > 0) {
    if (read(fds[0], &above, sizeof above) != sizeof above) {
      above = 0;
    }
    waitpid(pid, nullptr, 0);
  }
  close(fds[0]);
  return above;
}

// Benchmarks default to 1/10 of the paper's DBLP scale so the whole suite
// runs in minutes on a laptop.  Environment overrides:
//   GDP_FULL_SCALE=1   run at the paper's full DBLP scale
//   GDP_SCALE=0.02     run at an explicit fraction
inline double ScaleFraction(double default_fraction = 0.1) {
  if (const char* full = std::getenv("GDP_FULL_SCALE");
      full != nullptr && std::string(full) == "1") {
    return 1.0;
  }
  if (const char* scale = std::getenv("GDP_SCALE"); scale != nullptr) {
    const double f = std::atof(scale);
    if (f > 0.0 && f <= 1.0) {
      return f;
    }
    std::cerr << "ignoring invalid GDP_SCALE='" << scale << "'\n";
  }
  return default_fraction;
}

inline gdp::graph::BipartiteGraph MakeDblpLikeGraph(double fraction,
                                                    std::uint64_t seed) {
  gdp::common::Rng rng(seed);
  const auto params = gdp::graph::DblpScaledParams(fraction);
  gdp::common::Stopwatch sw;
  auto graph = gdp::graph::GenerateDblpLike(params, rng);
  std::cout << "# generated " << graph.Summary() << " in "
            << gdp::common::FormatDouble(sw.ElapsedSeconds(), 2) << "s (scale "
            << fraction << " of DBLP)\n";
  return graph;
}

// A budget whose whole ε is Phase 2, so the noise is calibrated to exactly
// `epsilon`.
inline gdp::core::BudgetSpec Phase2Budget(
    double epsilon, gdp::core::NoiseKind noise = gdp::core::NoiseKind::kGaussian) {
  return gdp::core::BudgetSpec{epsilon, 1e-5, 0.0, noise};
}

// An artifact adopting a hierarchy the bench built itself, with its plan
// built here; its Release is the one release path.  `graph` must outlive it.
inline std::shared_ptr<const gdp::core::CompiledDisclosure> ArtifactFor(
    const gdp::graph::BipartiteGraph& graph,
    const gdp::hier::GroupHierarchy& hierarchy,
    const gdp::core::ExecSpec& exec = {}) {
  gdp::core::SessionSpec spec;
  spec.exec = exec;
  return gdp::core::CompiledDisclosure::FromPrecompiled(
      graph, spec, hierarchy, gdp::core::ReleasePlan::Build(graph, hierarchy),
      0.0);
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n" << paper_ref << "\n"
            << "==============================================================\n";
}

}  // namespace gdp::bench
