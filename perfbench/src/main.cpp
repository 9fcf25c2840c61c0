// mado_bench: the repo benchmark's measuring program.
//
//   mado_bench --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]
//
// Prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics of an untraced run; --trace 1 runs an untraced and a
// traced half and reports the per-layer metrics (README.md lists them).
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using pb::MetricSpec;

/// Must match BENCHMARK.json's end_to_end list (run.py checks).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},     {"ops_per_s", "1/s"},
    {"MBps", "MB/s"},         {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

/// Must match BENCHMARK.json's per_layer list (run.py checks). A metric a
/// workload does not exercise reads 0 there.
const std::vector<MetricSpec> kPerLayer = {
    {"core.pack.ns", "ns"},
    {"core.pack.allocs", "count"},
    {"core.post.ns", "ns"},
    {"core.post.allocs", "count"},
    {"core.progress_tx.ns", "ns"},
    {"core.progress_tx.allocs", "count"},
    {"core.progress_rx.ns", "ns"},
    {"core.progress_rx.allocs", "count"},
    {"core.recv.ns", "ns"},
    {"core.recv.allocs", "count"},
    {"core.progress.useful_ratio", "ratio"},
    {"core.reconcile.coverage", "ratio"},
    {"core.reconcile.ratio", "ratio"},
    {"core.opt.frags_per_packet", "ratio"},
    {"core.opt.decisions_per_msg", "ratio"},
    {"core.opt.slab_miss_ratio", "ratio"},
    {"core.opt.lock_wait_ns_per_msg", "ns"},
    {"core.submit.ring_share", "ratio"},
    {"core.submit.ring_full", "count"},
    {"core.prog.wakeups_per_msg", "ratio"},
    {"core.prog.idle_sleeps_per_msg", "ratio"},
    {"core.prog.steals", "count"},
    {"core.rx.unexpected_share", "ratio"},
    {"core.wait_send.ns", "ns"},
    {"drivers.shm.packets_per_msg", "ratio"},
    {"cpu.app_us_per_msg", "us"},
    {"cpu.engine_us_per_msg", "us"},
    {"proc.threads", "count"},
    {"mem.allocs_per_msg", "count"},
    {"mw.plan.ns", "ns"},
    {"mw.coll.steps_per_op", "ratio"},
    {"mw.coll.allocs_per_op", "count"},
    {"sim.events_per_op", "ratio"},
    {"sim.ns_per_event", "ns"},
    {"mw.coll.barrier.virtual_us", "sim_us"},
    {"mw.coll.barrier.oracle_gap", "ratio"},
    {"mw.coll.allreduce8.virtual_us", "sim_us"},
    {"mw.coll.allreduce8.oracle_gap", "ratio"},
    {"mw.coll.allreduce256k.virtual_us", "sim_us"},
    {"mw.coll.allreduce256k.oracle_gap", "ratio"},
    {"mw.coll.bcast64k.virtual_us", "sim_us"},
    {"mw.coll.bcast64k.oracle_gap", "ratio"},
    {"mw.coll.alltoall1k.virtual_us", "sim_us"},
    {"mw.coll.alltoall1k.oracle_gap", "ratio"},
    {"lat.p999_us", "us"},
    {"lat.samples", "count"},
    {"trace.overhead_pct", "%"},
    {"host.calib_ns", "ns"},
    {"host.steal_pct", "%"},
    {"host.used_windows", "ratio"},
    {"fail_ratio", "ratio"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "mado_bench: %s\nusage: mado_bench --workload "
               "pingpong_inproc|socket_pingpong|collective_sim"
               " --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n",
               msg);
  return 2;
}

extern "C" void on_alarm(int) {
  static const char msg[] = "mado_bench: run exceeded its time limit\n";
  (void)!write(2, msg, sizeof msg - 1);
  _exit(3);
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (!(args.seconds > 0 && args.seconds <= 600))
        return usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace must be 0 or 1");
      args.trace = v[0] == '1';
    } else if (flag == "--trace-dir") {
      args.trace_dir = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end && *end) return usage(("bad number for " + flag).c_str());
  }
  if (!have_workload) return usage("--workload is required");

  void (*run)(const pb::RunArgs&, pb::Report&) = nullptr;
  if (args.workload == "pingpong_inproc") run = pb::run_pingpong_inproc;
  if (args.workload == "socket_pingpong") run = pb::run_socket_pingpong;
  if (args.workload == "collective_sim") run = pb::run_collective_sim;
  if (!run) return usage(("unknown workload " + args.workload).c_str());

  // A hung library call must not hang the benchmark.
  std::signal(SIGALRM, on_alarm);
  alarm(static_cast<unsigned>(args.seconds) + 100);
  // The threaded worlds honour this override; the benchmark fixes its own
  // thread counts.
  unsetenv("MADO_PROGRESS_THREADS");

  pb::Report rep;
  const double calib0 = pb::host_calib_ns();
  run(args, rep);
  const double calib1 = pb::host_calib_ns();
  std::fprintf(stderr, "host.calib_ns start %.0f end %.0f\n", calib0, calib1);
  if (args.trace) {
    rep.set("host.calib_ns", (calib0 + calib1) / 2, "ns");
    rep.set("fail_ratio",
            pb::ratio(static_cast<double>(rep.failed),
                      static_cast<double>(rep.attempted)),
            "ratio");
  }
  std::fflush(stderr);
  std::printf("%s\n", rep.json(args.trace ? kPerLayer : kEndToEnd).c_str());
  return 0;
}
