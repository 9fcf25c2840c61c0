// The three benchmark workloads. Each builds its world from the seed,
// measures setup, runs an untraced phase and, for trace runs, a traced
// phase, checks every output and fills the report.
#pragma once

#include "harness.hpp"

namespace pb {

void run_pingpong_inproc(const RunArgs& args, Report& rep);
void run_socket_pingpong(const RunArgs& args, Report& rep);
void run_collective_sim(const RunArgs& args, Report& rep);

}  // namespace pb
