// Tests for the JSON run report and TagnnConfig validation.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/datasets.hpp"
#include "obs/json.hpp"
#include "tagnn/report.hpp"

namespace tagnn {
namespace {

TEST(Report, ContainsAllSections) {
  const DynamicGraph g = datasets::load("GT", 0.1, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  TagnnConfig cfg;
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);
  const std::string j = json_report("GT/T-GCN", cfg, r);
  for (const char* key :
       {"\"workload\"", "\"config\"", "\"cycles\"", "\"seconds\"",
        "\"energy_j\"", "\"counts\"", "\"dcu_utilization\"",
        "\"rnn_skip\"", "\"format\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
}

TEST(Report, IsValidJsonAndCarriesDiagnosis) {
  const DynamicGraph g = datasets::load("GT", 0.1, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  TagnnConfig cfg;
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);
  const std::string j = json_report("GT/T-GCN", cfg, r);

  std::string err;
  ASSERT_TRUE(obs::json_valid(j, &err)) << err;

  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(j, &doc, &err)) << err;
  const obs::JsonValue* diag = doc.find("diagnosis");
  ASSERT_NE(diag, nullptr);
  const obs::JsonValue* roof = diag->find("roofline");
  ASSERT_NE(roof, nullptr);
  const std::string verdict = roof->string_at("verdict");
  EXPECT_TRUE(verdict == "memory-bound" || verdict == "compute-bound")
      << verdict;
  const obs::JsonValue* cs = diag->find("cycle_stack");
  ASSERT_NE(cs, nullptr);

  // Sum-to-total invariant, aggregate and every window.
  const auto check_sums = [](const obs::JsonValue& stack) {
    const obs::JsonValue* comps = stack.find("components");
    ASSERT_NE(comps, nullptr);
    double sum = 0;
    for (const auto& [name, c] : comps->as_object()) {
      (void)name;
      sum += c.number_at("attributed");
    }
    EXPECT_DOUBLE_EQ(sum, stack.number_at("total"));
  };
  const obs::JsonValue* agg = cs->find("aggregate");
  ASSERT_NE(agg, nullptr);
  check_sums(*agg);
  const obs::JsonValue* wins = cs->find("windows");
  ASSERT_NE(wins, nullptr);
  ASSERT_TRUE(wins->is_array());
  EXPECT_FALSE(wins->as_array().empty());
  for (const auto& wstack : wins->as_array()) check_sums(wstack);
}

TEST(Report, DiagnoseHelpersMatchResult) {
  const DynamicGraph g = datasets::load("GT", 0.1, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  TagnnConfig cfg;
  cfg.window = 3;
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);

  const auto roof = diagnose_roofline(cfg, r);
  EXPECT_DOUBLE_EQ(roof.peak_macs_per_cycle,
                   static_cast<double>(cfg.total_macs()));
  EXPECT_GT(roof.peak_bytes_per_cycle, 0);

  const auto agg = diagnose_cycle_stack(r);
  const std::uint64_t agg_sum = std::accumulate(
      agg.components.begin(), agg.components.end(), std::uint64_t{0},
      [](std::uint64_t s, const auto& c) { return s + c.attributed; });
  EXPECT_EQ(agg_sum, r.cycles.total);

  const auto stacks = diagnose_window_stacks(r);
  ASSERT_EQ(stacks.size(), r.telemetry.window_records.size());
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    const std::uint64_t sum = std::accumulate(
        stacks[i].components.begin(), stacks[i].components.end(),
        std::uint64_t{0},
        [](std::uint64_t s, const auto& c) { return s + c.attributed; });
    EXPECT_EQ(sum, r.telemetry.window_records[i].total) << stacks[i].label;
  }
}

TEST(ConfigValidate, DefaultsAreValid) {
  TagnnConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, RejectsBrokenConfigs) {
  TagnnConfig cfg;
  cfg.num_dcus = 0;
  EXPECT_THROW(cfg.validate(), std::logic_error);

  TagnnConfig th;
  th.thresholds = {0.9f, 0.1f};  // inverted
  EXPECT_THROW(th.validate(), std::logic_error);

  TagnnConfig huge;
  huge.num_dcus = 64;  // 16k MACs cannot fit the U280
  EXPECT_THROW(huge.validate(), std::logic_error);
}

}  // namespace
}  // namespace tagnn
