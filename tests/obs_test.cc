// Tests for the observability layer: the virtual-time tracer, the counter
// registry, and the guarantee that enabling tracing does not perturb any
// simulated result.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "fault/plan.h"
#include "harness/benchops.h"
#include "harness/cluster.h"
#include "obs/counters.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"

namespace scrnet::obs {
namespace {

/// Restore the process-wide tracer/counter state around each test (both
/// singletons are shared across the whole test binary).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().enable(false);
    Tracer::global().clear();
    Counters::global().enable(false);
    Counters::global().clear();
  }
  void TearDown() override { SetUp(); }
};

struct FakeClock {
  SimTime t = 0;
  SimTime now() const { return t; }
};

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  EXPECT_FALSE(Tracer::enabled());
  FakeClock clk;
  {
    TRACE_SPAN(Layer::kBbp, 0, "bbp.post", clk);
    clk.t = us(5);
    TRACE_INSTANT(Layer::kSim, 1, "sim.spawn", clk);
  }
  EXPECT_EQ(Tracer::global().events(), 0u);
}

TEST_F(ObsTest, SpanReadsClockAtEntryAndExit) {
  Tracer::global().enable(true);
  FakeClock clk{us(10)};
  {
    TRACE_SPAN(Layer::kMpi, 3, "mpi.send", clk);
    clk.t = us(25);
  }
  TRACE_INSTANT(Layer::kRing, 1, "ring.inject", clk);
  EXPECT_EQ(Tracer::global().events(), 2u);

  std::ostringstream os;
  Tracer::global().write_json(os);
  const std::string json = os.str();
  // Span: complete event on node 3's scrmpi track covering [10us, 25us].
  EXPECT_NE(json.find("\"name\":\"mpi.send\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":10,\"dur\":15,\"pid\":3,\"tid\":3"),
            std::string::npos);
  // Instant on node 1's scramnet track.
  EXPECT_NE(json.find("\"name\":\"ring.inject\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Process/thread naming metadata for Perfetto.
  EXPECT_NE(json.find("\"name\":\"node3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scrmpi\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scramnet\""), std::string::npos);
}

TEST_F(ObsTest, LayerNamesCoverAllLayers) {
  EXPECT_STREQ(layer_name(Layer::kSim), "sim");
  EXPECT_STREQ(layer_name(Layer::kRing), "scramnet");
  EXPECT_STREQ(layer_name(Layer::kBbp), "bbp");
  EXPECT_STREQ(layer_name(Layer::kMpi), "scrmpi");
  EXPECT_STREQ(layer_name(static_cast<Layer>(9)), "?");
}

TEST_F(ObsTest, UnwritablePathsFailWithoutThrowing) {
  const std::string bad = ::testing::TempDir() + "no_such_dir/out.json";
  Counters::global().add("g", "n", 1);
  EXPECT_FALSE(Counters::global().write_json_file(bad));
  Tracer::global().enable(true);
  FakeClock clk;
  { TRACE_SPAN(Layer::kBbp, 0, "x", clk); }
  EXPECT_FALSE(Tracer::global().write_json_file(bad));
}

/// Every harness entry point publishes its ranks', fabric's, fault plan's
/// and kernel's counters into the simulation's sink once counters are
/// enabled; the sink writes them as one JSON document. The bench-level
/// measurements that build their own simulation publish the same way.
TEST_F(ObsTest, HarnessRunsPublishCountersIntoTheirSink) {
  Counters::global().enable(true);
  Sink sink("harness");
  {
    Sink::Scope scope(sink);
    auto mpi_body = [](sim::Process&, scrmpi::Mpi& mpi) {
      const scrmpi::Comm& w = mpi.world();
      std::vector<u8> msg(16, 1);
      if (mpi.rank(w) == 0) mpi.send(msg.data(), 16, scrmpi::Datatype::kByte, 1, 0, w);
      if (mpi.rank(w) == 1) mpi.recv(msg.data(), 16, scrmpi::Datatype::kByte, 0, 0, w);
    };
    fault::FaultPlan plan;
    plan.slow_node(us(1), 0, 2.0);
    harness::ScramnetOptions sopts;
    sopts.faults = &plan;
    harness::run_scramnet_mpi(2, mpi_body, sopts);
    harness::run_scramnet_bbp(2, [](sim::Process&, bbp::Endpoint& ep) {
      std::vector<u8> buf(8);
      if (ep.rank() == 0) ASSERT_TRUE(ep.send(1, buf).ok());
      else ASSERT_TRUE(ep.recv(0, buf).ok());
    });
    harness::run_tcp_mpi(2, harness::TcpFabricKind::kAtm, mpi_body);
    harness::run_rdma_mpi(2, mpi_body);
    harness::run_hybrid_mpi(2, harness::TcpFabricKind::kMyrinet, 8, mpi_body);
  }
  const Counters& c = sink.counters();
  EXPECT_EQ(c.get("mpi.rank0", "sends"), 4u);
  EXPECT_EQ(c.get("mpi.rank1", "recvs"), 4u);
  EXPECT_EQ(c.get("mpi.rank1", "packets_handled"), 4u);
  EXPECT_EQ(c.get("bbp.rank0", "sends"), 2u);  // ch_bbp and run_scramnet_bbp
  EXPECT_EQ(c.get("bbp.rank0", "recvs"), 0u);  // hybrid sent 16 B on its bulk leg
  EXPECT_EQ(c.get("bbp.rank1", "stale_descs"), 0u);
  EXPECT_EQ(c.get("fault", "host_cpu"), 1u);
  EXPECT_GT(c.get("net", "frames_delivered"), 0u);
  EXPECT_GT(c.get("net", "bytes_delivered"), 0u);
  EXPECT_GT(c.get("ring", "packets_sent"), 0u);
  EXPECT_GT(c.get("sim", "events_executed"), 0u);

  const std::string base = ::testing::TempDir() + "obs_counters.json";
  ASSERT_TRUE(sink.flush_counters_to(base));
  std::ifstream in(base + ".harness");
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"mpi.rank0\":{"), std::string::npos);
  EXPECT_FALSE(Sink().flush_counters_to(base));  // nothing recorded

  // Figure 2's baselines run on the same path: the sockets API over ATM
  // and the native Myrinet API publish their kernel and fabric counts.
  const auto published = [](const auto& measure) {
    Sink own("baseline");
    Sink::Scope scope(own);
    EXPECT_GT(measure(), 0.0);
    EXPECT_GT(own.counters().get("sim", "events_executed"), 0u);
    EXPECT_GT(own.counters().get("net", "frames_delivered"), 0u);
  };
  published([] { return harness::tcp_api_oneway_us(harness::TcpFabricKind::kAtm, 64, 2, 1); });
  published([] { return harness::myrinet_api_oneway_us(64, 2, 1); });
}

TEST_F(ObsTest, CountersAccumulateAndDump) {
  Counters& c = Counters::global();
  c.add("bbp.rank0", "sends", 3);
  c.add("bbp.rank0", "sends", 2);
  c.add("ring", "packets_sent", 42);
  EXPECT_EQ(c.get("bbp.rank0", "sends"), 5u);
  EXPECT_EQ(c.get("ring", "packets_sent"), 42u);
  EXPECT_EQ(c.get("ring", "no_such_counter"), 0u);
  EXPECT_FALSE(c.empty());

  std::ostringstream js;
  c.write_json(js);
  EXPECT_NE(js.str().find("\"bbp.rank0\":{\"sends\":5}"), std::string::npos);
  EXPECT_NE(js.str().find("\"ring\":{\"packets_sent\":42}"), std::string::npos);

  std::ostringstream tab;
  c.write_table(tab);
  EXPECT_NE(tab.str().find("bbp.rank0.sends"), std::string::npos);
  EXPECT_NE(tab.str().find("42"), std::string::npos);

  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.get("bbp.rank0", "sends"), 0u);
}

/// One BBP ping-pong session; returns the final virtual time.
SimTime run_pingpong_session() {
  sim::Simulation sim;
  scramnet::Ring ring(sim, scramnet::RingConfig{.nodes = 2, .bank_words = 1u << 14});
  for (u32 r = 0; r < 2; ++r) {
    sim.spawn("rank" + std::to_string(r), [&ring, r](sim::Process& p) {
      scramnet::SimHostPort port(ring, r, p);
      bbp::Endpoint ep(port, 2, r);
      std::vector<u8> buf(32);
      for (int i = 0; i < 20; ++i) {
        if (r == 0) {
          std::vector<u8> msg(32);
          fill_pattern(msg, static_cast<u32>(i));
          ASSERT_TRUE(ep.send(1, msg).ok());
          ASSERT_TRUE(ep.recv(1, buf).ok());
        } else {
          ASSERT_TRUE(ep.recv(0, buf).ok());
          ASSERT_TRUE(ep.send(0, buf).ok());
        }
      }
      ep.drain();
    });
  }
  sim.run();
  return sim.now();
}

TEST_F(ObsTest, TracingDoesNotPerturbVirtualTime) {
  const SimTime off = run_pingpong_session();
  Tracer::global().enable(true);
  const SimTime on = run_pingpong_session();
  EXPECT_EQ(on, off);  // tracing reads clocks, never consumes virtual time
  // And the traced run actually captured spans from several layers.
  std::ostringstream os;
  Tracer::global().write_json(os);
  EXPECT_GT(Tracer::global().events(), 0u);
  EXPECT_NE(os.str().find("bbp.post"), std::string::npos);
  EXPECT_NE(os.str().find("bbp.recv"), std::string::npos);
  EXPECT_NE(os.str().find("ring.inject"), std::string::npos);
  EXPECT_NE(os.str().find("sim.spawn"), std::string::npos);
}

TEST_F(ObsTest, EndpointPublishesItsStats) {
  Counters::global().enable(true);
  sim::Simulation sim;
  scramnet::Ring ring(sim, scramnet::RingConfig{.nodes = 2, .bank_words = 1u << 14});
  for (u32 r = 0; r < 2; ++r) {
    sim.spawn("rank" + std::to_string(r), [&ring, r](sim::Process& p) {
      scramnet::SimHostPort port(ring, r, p);
      bbp::Endpoint ep(port, 2, r);
      std::vector<u8> buf(16);
      if (r == 0) {
        ASSERT_TRUE(ep.send(1, std::vector<u8>(16, 0xAB)).ok());
        ep.drain();
      } else {
        ASSERT_TRUE(ep.recv(0, buf).ok());
      }
      ep.publish_counters(Counters::global(), r == 0 ? "bbp.rank0" : "bbp.rank1");
    });
  }
  sim.run();
  ring.publish_counters(Counters::global(), "ring");
  EXPECT_EQ(Counters::global().get("bbp.rank0", "sends"), 1u);
  EXPECT_EQ(Counters::global().get("bbp.rank1", "recvs"), 1u);
  EXPECT_GT(Counters::global().get("ring", "packets_sent"), 0u);
}

}  // namespace
}  // namespace scrnet::obs
