// socket_pingpong: SocketWorld (two engines over a real socketpair rail,
// progress threads, the driver's IO threads) with one bench thread
// ping-ponging seeded 8 B - 1 KiB messages. The kernel transport and the
// IO-thread hand-offs dominate here, so engine-path savings should not
// move it while IO-loop changes should.
//
// The whole process runs on one CPU, so a hand-off between the bench,
// progress and IO threads is a context switch on that CPU. Spread over a
// VM's vCPUs, each hand-off wakes another vCPU, which takes about 100 us
// from idle and waits for the hypervisor whenever that vCPU is taken
// away: on the 4-vCPU VM this was tuned on, unpinned runs delivered
// 1.6k-7.5k messages a second at about 10 % steal, pinned runs 17k-23k.
#include <sched.h>

#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "pingpong.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace mado;
using namespace mado::core;

constexpr ChannelId kChannel = 1;
constexpr std::size_t kPatternBytes = 1 << 20;
constexpr std::size_t kMinPayload = 8;
constexpr std::size_t kMaxPayload = 1024;
constexpr std::uint64_t kTimeoutNs = 5 * kNsPerSec;
constexpr std::size_t kMaxSamples = std::size_t{1} << 21;

/// Confine the calling thread, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(c, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
      std::perror("socket_pingpong: sched_setaffinity");
    return;
  }
}

struct World {
  static constexpr const char* kName = "socket_pingpong";
  SocketWorld sw{EngineConfig{}, drv::tcp_gige_profile()};
  Channel ca = sw.node(0).open_channel(1, kChannel);
  Channel cb = sw.node(1).open_channel(0, kChannel);

  /// The receive blocks while the progress and IO threads move the data.
  std::size_t one_way(int dir, pingpong::Loop& lp, Chain& ch) {
    return pingpong::one_way(sw.node(dir == 0 ? 0 : 1), dir == 0 ? ca : cb,
                             dir == 0 ? cb : ca, lp, ch, kTimeoutNs,
                             [](std::uint32_t) { return true; });
  }
  Counters counters() {
    Counters c = sw.node(0).counters_snapshot();
    c += sw.node(1).counters_snapshot();
    return c;
  }
};

}  // namespace

void run_socket_pingpong(const RunArgs& args, Report& rep) {
  pin_to_one_cpu();
  const Pattern pat(args.seed, kPatternBytes);
  pingpong::Loop lp(pat, args.seed, kMinPayload, kMaxPayload);
  pingpong::measure<World>(args, rep, lp, kMaxSamples);
}

}  // namespace pb
