#include "common/trace.h"

#include <gtest/gtest.h>

#include "common/platform.h"
#include "core/sprwl.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::trace {
namespace {

TEST(Tracer, EmitAndDrainPreserveOrder) {
  ThreadIdScope tid(3);
  Tracer t(16);
  TracerScope scope(t);
  emit(Event::kReadUninsEnter, 1);
  emit(Event::kReadUninsExit, 2);
  const auto records = t.drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, Event::kReadUninsEnter);
  EXPECT_EQ(records[0].arg, 1u);
  EXPECT_EQ(records[0].tid, 3);
  EXPECT_EQ(records[1].event, Event::kReadUninsExit);
}

TEST(Tracer, RingKeepsTheNewestRecords) {
  ThreadIdScope tid(0);
  Tracer t(4);
  TracerScope scope(t);
  for (std::uint32_t i = 0; i < 10; ++i) emit(Event::kWriterWait, i);
  EXPECT_EQ(t.emitted(), 10u);
  const auto records = t.drain();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().arg, 6u);
  EXPECT_EQ(records.back().arg, 9u);
}

TEST(Tracer, NoTracerInstalledIsANoOp) {
  ASSERT_EQ(Tracer::current(), nullptr);
  emit(Event::kWriteHtmCommit);  // must not crash
}

TEST(Tracer, EventNamesAreDistinct) {
  EXPECT_STREQ(to_string(Event::kReadHtmCommit), "read-htm-commit");
  EXPECT_STREQ(to_string(Event::kWriteAbortReader), "write-abort-reader");
  EXPECT_STREQ(to_string(Event::kBiasRevoke), "bias-revoke");
}

TEST(Tracer, CapturesTheFig1Timeline) {
  // The Fig. 1 scenario traced end to end: a long reader forces the writer
  // through reader-aborts into the SGL; the trace must show the reader
  // entering uninstrumented, at least one write-abort-reader, the SGL
  // round trip, and the reader leaving before the SGL section ends.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope escope(engine);
  core::Config cfg = core::Config::variant(core::SchedulingVariant::kNoSched, 2);
  cfg.reader_htm_first = false;
  core::SpRWLock lock{cfg};
  htm::Shared<std::uint64_t> x;
  Tracer tracer;
  TracerScope scope(tracer);
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] { platform::advance(50'000); });
    } else {
      platform::advance(5'000);
      lock.write(1, [&] { x.store(1); });
    }
  });
  const auto records = tracer.drain();
  bool saw_enter = false, saw_abort = false, saw_sgl = false, saw_exit = false;
  std::uint64_t reader_exit_time = 0, sgl_exit_time = 0;
  for (const Record& r : records) {
    switch (r.event) {
      case Event::kReadUninsEnter: saw_enter = true; break;
      case Event::kWriteAbortReader: saw_abort = true; break;
      case Event::kWriteSglEnter: saw_sgl = true; break;
      case Event::kReadUninsExit:
        saw_exit = true;
        reader_exit_time = r.time;
        break;
      case Event::kWriteSglExit: sgl_exit_time = r.time; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_enter);
  EXPECT_TRUE(saw_abort);
  EXPECT_TRUE(saw_sgl);
  EXPECT_TRUE(saw_exit);
  // The SGL writer waited for the reader: it exits after the reader did.
  EXPECT_GT(sgl_exit_time, reader_exit_time);
}

TEST(Tracer, CapturesHtmCommitFastPaths) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope escope(engine);
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, 1)};
  htm::Shared<std::uint64_t> x;
  Tracer tracer;
  TracerScope scope(tracer);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.read(0, [&] { (void)x.load(); });
    lock.write(1, [&] { x.store(1); });
  });
  const auto records = tracer.drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, Event::kReadHtmCommit);
  EXPECT_EQ(records[1].event, Event::kWriteHtmCommit);
  EXPECT_EQ(records[1].arg, 1u);  // first attempt
}

}  // namespace
}  // namespace sprwl::trace
