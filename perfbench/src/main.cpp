// perfbench: the eTransform benchmark harness (see ../README.md).
//
//   perfbench --workload <estates-exact|dr-horizon-exact|daemon-mix>
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--build-type T] [--compiler C] [--commit H]
//
// Prints one line per solve or phase, every metric with its unit, and as
// its last line the result object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits non-zero when any correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "common/logging.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      ok = false;
      break;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--build-type") {
      args.build_type = value;
    } else if (flag == "--compiler") {
      args.compiler = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      ok = false;
    }
  }
  const bool exact = args.workload == "estates-exact" ||
                     args.workload == "dr-horizon-exact";
  if (!ok || args.seconds < 1 || (!exact && args.workload != "daemon-mix")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<estates-exact|dr-horizon-exact|daemon-mix> --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  etransform::set_log_level(etransform::LogLevel::kError);
  std::printf("perfbench workload %s seed %llu seconds %d trace %d "
              "build_type %s compiler %s commit %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.build_type.c_str(),
              args.compiler.c_str(), args.commit.c_str());
  try {
    return exact ? perfbench::run_exact(args)
                 : perfbench::run_daemon_mix(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
