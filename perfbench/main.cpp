// perfbench: the repository's end-to-end benchmark harness.
//
//   perfbench --workload <hd_frame|cams4|fleet_small> --seed <n>
//             --seconds <s> --trace <0|1> [--perturb <expectation>]
//
// Prints one context line ("perfbench-info {...}": sample counts, tail
// percentile, host, thread budget, work fingerprint, output checks) and, as
// the last line, the result object run.py hands to the caller. Exit code 0
// whenever a result was printed; a failed check shows as "correct": false.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/common.hpp"
#include "src/util/logging.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--perturb") {
      args.perturb = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds < 1) {
    std::fprintf(stderr, "--seconds must be >= 1\n");
    return 2;
  }
  pdet::util::set_default_log_level(pdet::util::LogLevel::kWarn);
  // Pin glibc's mmap threshold at its initial 128 KiB. By default the first
  // free of a large block raises it, after which large workspaces come from
  // the heap and may land on pages earlier set-up rounds left resident; which
  // ones do varies run to run, and peak_rss_mb moved by ~5 MiB with it.
  // Pinned, every large block is mapped fresh and counted in full.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  double load[1] = {-1.0};
  (void)getloadavg(load, 1);

  Report (*run)(const Args&) = nullptr;
  if (args.workload == "hd_frame") run = run_hd_frame;
  if (args.workload == "cams4") run = run_cams4;
  if (args.workload == "fleet_small") run = run_fleet_small;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    const Report report = run(args);
    print_report(report, args, load[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
