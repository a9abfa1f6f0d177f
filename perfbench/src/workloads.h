// Workload entry points. Each runs one workload for --seconds and returns
// the process exit code (non-zero when any correctness check failed).
#pragma once

#include "common.h"

namespace perfbench {

/// estates-exact and dr-horizon-exact (exact.cpp).
int run_exact(const Args& args);
/// daemon-mix (daemon_mix.cpp).
int run_daemon_mix(const Args& args);

}  // namespace perfbench
