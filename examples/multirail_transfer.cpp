// Multirail bulk transfer over heterogeneous rails (paper §2: "dynamic load
// balancing on multiple resources, multiple NICs, or even NICs from
// multiple technologies"): one Myrinet/MX rail + one Quadrics/Elan rail,
// comparing the Bulk class pinned to rail 0 with Bulk spread over every
// rail (kAllRails).
//
// Build & run:  ./build/examples/multirail_transfer
#include <cstdio>

#include "core/world.hpp"
#include "drivers/profiles.hpp"

using namespace mado;
using namespace mado::core;

namespace {

double run_mbps(RailId bulk_rail, std::size_t bytes) {
  EngineConfig cfg;
  cfg.class_rail[static_cast<std::size_t>(TrafficClass::Bulk)] = bulk_rail;
  cfg.rdv_chunk = 64 * 1024;
  cfg.rdv_threshold_override = 32 * 1024;
  SimWorld world(2, cfg);
  world.connect(0, 1, drv::mx_myrinet_profile());    // ~250 MB/s
  world.connect(0, 1, drv::elan_quadrics_profile()); // ~900 MB/s

  Channel tx = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel rx = world.node(1).open_channel(0, 7, TrafficClass::Bulk);

  Bytes data(bytes, Byte{0x42});
  Message m;
  m.pack(data.data(), data.size(), SendMode::Later);
  tx.post(std::move(m));

  Bytes out(bytes);
  IncomingMessage im = rx.begin_recv();
  const Nanos t0 = world.now();
  im.unpack(out.data(), out.size(), RecvMode::Cheaper);
  im.finish();
  const Nanos dt = world.now() - t0;
  return static_cast<double>(bytes) / to_usec(dt);  // bytes/us == MB/s
}

struct Placement {
  const char* name;
  RailId bulk_rail;
};
constexpr Placement kPlacements[] = {{"pinned", 0}, {"stripe", kAllRails}};

}  // namespace

int main() {
  std::printf("bulk transfer over MX (250 MB/s) + Elan (900 MB/s) rails\n\n");
  std::printf("%-14s", "size");
  for (const Placement& p : kPlacements) std::printf(" %14s", p.name);
  std::printf("   (MB/s)\n");
  for (std::size_t bytes : {256u << 10, 1u << 20, 4u << 20, 8u << 20}) {
    std::printf("%10zu KiB", bytes >> 10);
    for (const Placement& p : kPlacements)
      std::printf(" %14.1f", run_mbps(p.bulk_rail, bytes));
    std::printf("\n");
  }
  std::printf(
      "\npinned is capped by the Bulk class's rail; stripe approaches "
      "the 1150 MB/s aggregate:\nthe cost model sizes each rail's share and "
      "an idle NIC steals whatever the model got wrong.\n");
  return 0;
}
