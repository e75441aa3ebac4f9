// Tests for the binary trace format: round-trips, validation of
// malformed inputs, file-level helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/wait.h>

#include "graph/datasets.hpp"
#include "graph/trace_io.hpp"
#include "nn/engine.hpp"
#include "obs/json.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

DynamicGraph sample() { return datasets::load("GT", 0.1, 4); }

TEST(TraceIo, RoundTripPreservesEverything) {
  const DynamicGraph g = sample();
  std::stringstream ss;
  write_trace(g, ss);
  const DynamicGraph h = read_trace(ss);

  EXPECT_EQ(h.name(), g.name());
  ASSERT_EQ(h.num_snapshots(), g.num_snapshots());
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.feature_dim(), g.feature_dim());
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    const Snapshot& a = g.snapshot(t);
    const Snapshot& b = h.snapshot(t);
    EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_TRUE(a.graph.same_neighbors(v, b.graph)) << v;
      EXPECT_EQ(a.present[v], b.present[v]);
    }
    EXPECT_TRUE(a.features == b.features);
  }
}

TEST(TraceIo, FileRoundTrip) {
  const DynamicGraph g = sample();
  const std::string path = "/tmp/tagnn_test_trace.tgt";
  write_trace_file(g, path);
  const DynamicGraph h = read_trace_file(path);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_TRUE(h.snapshot(0).features == g.snapshot(0).features);
  std::remove(path.c_str());
}

TEST(TraceIo, BadMagicRejected) {
  std::stringstream ss;
  ss << "NOPE garbage";
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, TruncationRejected) {
  const DynamicGraph g = sample();
  std::stringstream ss;
  write_trace(g, ss);
  const std::string full = ss.str();
  for (const std::size_t cut :
       {std::size_t{5}, std::size_t{20}, full.size() / 2}) {
    std::stringstream trunc(full.substr(0, cut));
    EXPECT_THROW(read_trace(trunc), std::runtime_error) << "cut=" << cut;
  }
}

TEST(TraceIo, CorruptNeighborRejected) {
  const DynamicGraph g = sample();
  std::stringstream ss;
  write_trace(g, ss);
  std::string data = ss.str();
  // Stomp a byte in the neighbour array region with an absurd value.
  const std::size_t header = 4 + 4 + 4 + 4 + 4 + 4 + g.name().size();
  const std::size_t offsets =
      8 + (static_cast<std::size_t>(g.num_vertices()) + 1) * 8;
  data[header + offsets + 3] = '\x7f';  // high byte of first neighbor id
  std::stringstream bad(data);
  EXPECT_THROW(read_trace(bad), std::runtime_error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path.tgt"),
               std::runtime_error);
}

TEST(TraceIo, RoundTrippedGraphRunsThroughEngines) {
  const DynamicGraph g = sample();
  std::stringstream ss;
  write_trace(g, ss);
  const DynamicGraph h = read_trace(ss);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), h.feature_dim(), 1);
  const EngineResult a = ReferenceEngine().run(g, w);
  const EngineResult b = ReferenceEngine().run(h, w);
  EXPECT_EQ(max_abs_diff(a.final_hidden, b.final_hidden), 0.0f);
}

// A .tgt name is up to 4096 untrusted bytes; the info report must stay
// valid JSON whatever they hold.
TEST(TraceTool, InfoReportEscapesHostileTraceName) {
  const DynamicGraph g = sample();
  std::vector<Snapshot> snaps;
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    snaps.push_back(g.snapshot(t));
  }
  const DynamicGraph hostile(std::string("q\"b\\s\nx\x01y"), std::move(snaps));
  const std::string tgt = ::testing::TempDir() + "tagnn_hostile_name.tgt";
  const std::string report = ::testing::TempDir() + "tagnn_hostile_name.json";
  write_trace_file(hostile, tgt);
  const std::string cmd = std::string("'") + TAGNN_TRACE_TOOL + "' info '" +
                          tgt + "' --report-out '" + report +
                          "' > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(report);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::string err;
  EXPECT_TRUE(obs::json_valid(doc, &err)) << err << "\n" << doc;
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(doc, &v, &err)) << err;
  EXPECT_EQ(v.string_at("trace"), hostile.name());
  EXPECT_DOUBLE_EQ(v.number_at("avg_edges"), hostile.avg_edges());
  std::remove(tgt.c_str());
  std::remove(report.c_str());
}

// `gen` must refuse a misspelt option and an option missing its value
// with the usage text and exit 2, instead of writing a trace built from
// the defaults.
TEST(TraceTool, GenRefusesUnknownOrValuelessOption) {
  const std::string tgt = ::testing::TempDir() + "tagnn_gen_bad_opts.tgt";
  const std::string err = ::testing::TempDir() + "tagnn_gen_bad_opts.err";
  for (const char* opts : {"--sclae 0.05", "--scale 0.05 --snapshots",
                           "--dataset"}) {
    std::remove(tgt.c_str());
    const std::string cmd = std::string("'") + TAGNN_TRACE_TOOL + "' gen '" +
                            tgt + "' " + opts + " > /dev/null 2> '" + err +
                            "'";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    std::ifstream in(err);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("usage: tagnn_trace gen"), std::string::npos) << cmd;
    EXPECT_FALSE(std::ifstream(tgt).good()) << cmd << " wrote a trace";
  }
  // The well-formed spelling still works.
  const std::string ok = std::string("'") + TAGNN_TRACE_TOOL + "' gen '" +
                         tgt + "' --dataset GT --scale 0.05 --snapshots 3" +
                         " > /dev/null";
  ASSERT_EQ(std::system(ok.c_str()), 0) << ok;
  EXPECT_EQ(read_trace_file(tgt).num_snapshots(), 3u);
  std::remove(tgt.c_str());
  std::remove(err.c_str());
}

}  // namespace
}  // namespace tagnn
