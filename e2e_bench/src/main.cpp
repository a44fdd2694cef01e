// e2e_bench — end-to-end benchmark of liquid3d with per-layer attribution.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--perturb] [--trace-dir <dir>]
//
// Workloads: paper-grid, steady-queries, steady-full, steady-wire,
// whatif-queue (see README.md).  The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"} — the
// end-to-end metrics untraced, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--perturb] [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--perturb") {
      opt.perturb = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be > 0");

  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"paper-grid", run_paper_grid},       {"steady-queries", run_steady_queries},
      {"steady-full", run_steady_full},     {"steady-wire", run_steady_wire},
      {"whatif-queue", run_whatif_queue},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage(("unknown workload '" + opt.workload + "'").c_str());

  liquid3d::obs::init_from_env();
  Report report(opt);
  try {
    it->second(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.print();
  return 0;
}
