#include "util/queues.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace mado {
namespace {

// Instrumented element type whose move behaves like an element-wise /
// copy-on-move type (e.g. an inline small-vector or a shared handle): the
// moved-from source still counts as holding its resource until it is
// destroyed or reassigned. `live` counts resource-holding instances.
struct StickyResource {
  static inline int live = 0;
  int value = 0;
  bool active = false;
  StickyResource() = default;
  explicit StickyResource(int v) : value(v), active(true) { ++live; }
  StickyResource(StickyResource&& o) noexcept
      : value(o.value), active(o.active) {
    if (active) ++live;  // source stays active — the sticky part
  }
  StickyResource& operator=(StickyResource&& o) noexcept {
    if (this == &o) return *this;
    if (active) --live;
    value = o.value;
    active = o.active;
    if (active) ++live;
    return *this;
  }
  StickyResource(const StickyResource&) = delete;
  StickyResource& operator=(const StickyResource&) = delete;
  ~StickyResource() {
    if (active) --live;
  }
};

TEST(MpmcRing, PopResetsSlotSoNoResourceIsPinned) {
  // try_pop must reset the slot to a default-constructed T: for element
  // types whose move does not empty the source, a quiet ring would
  // otherwise pin the last popped element's resources until the slot is
  // overwritten a full lap later.
  StickyResource::live = 0;
  {
    MpmcRing<StickyResource> q(8);
    EXPECT_TRUE(q.try_push(StickyResource(7)));
    EXPECT_EQ(StickyResource::live, 1);  // held by the ring slot only
    {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(v->value, 7);
      // Only the popped copy remains live; the ring slot was reset.
      EXPECT_EQ(StickyResource::live, 1);
    }
    EXPECT_EQ(StickyResource::live, 0);  // nothing pinned in the idle ring
  }
  EXPECT_EQ(StickyResource::live, 0);
}

TEST(MpscQueue, PushPop) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, DrainTakesEverything) {
  MpscQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.drain(out), 5u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drain(out), 0u);
}

TEST(MpscQueue, MultiProducerCountsMatch) {
  MpscQueue<int> q;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t)
    producers.emplace_back([&q] {
      for (int i = 0; i < kPerThread; ++i) q.push(i);
    });
  for (auto& t : producers) t.join();
  std::vector<int> out;
  q.drain(out);
  EXPECT_EQ(out.size(), 4u * kPerThread);
}

}  // namespace
}  // namespace mado
