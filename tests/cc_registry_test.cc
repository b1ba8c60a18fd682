// The registries — engines (cc), commit paths (proto) and lease modes —
// are the single mapping from names to enum values, labels and factories,
// all served by one lookup (common/registry.h). These tests pin its
// contract on each of the three: names are unique and round-trip, every
// enum value has exactly one row, unknown names fail strictly with the
// exact listing text the CLIs print; then the --cc/--smoke flags parse,
// and every engine factory actually produces a runnable engine.

#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "harness/cli.h"
#include "lease/lease.h"
#include "protocols/commit.h"
#include "protocols/config.h"
#include "protocols/engine.h"

namespace gtpl::cc {
namespace {

// One contract, run over each of the three registries below: every value
// has exactly one row, whose name finds it, parses back to the value and
// reads back from ToString as `printed(row)`; the listing is exact; and an
// unknown name fails with the exact rejection text the CLIs print, leaving
// the output untouched.
template <typename RegistryT, typename Value, typename Printed>
void ExpectRegistryContract(const RegistryT& registry,
                            const std::vector<Value>& values,
                            const std::string& what,
                            const std::string& listing, Printed printed) {
  EXPECT_EQ(registry.size(), values.size());
  std::set<std::string> names;
  for (Value value : values) {
    const auto& row = registry.For(value);
    SCOPED_TRACE(row.name);
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate name";
    EXPECT_EQ(registry.Find(row.name), &row);
    EXPECT_NE(std::string(row.summary), "");
    Value parsed = value == values.front() ? values.back() : values.front();
    ASSERT_TRUE(registry.Parse(row.name, &parsed).ok());
    EXPECT_EQ(parsed, value);
    EXPECT_STREQ(ToString(value), printed(row));
  }
  EXPECT_EQ(registry.Names(), listing);
  EXPECT_EQ(registry.Find(""), nullptr);
  Value untouched = values.back();
  for (const char* bogus : {"bogus", "", "Sticky", "G2PL"}) {
    const Status status = registry.Parse(bogus, &untouched);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << bogus;
    EXPECT_EQ(status.message(), "unknown " + what + " '" + bogus +
                                    "' (registered: " + listing + ")");
  }
  EXPECT_EQ(untouched, values.back()) << "a failed parse must not write";
}

TEST(RegistryContractTest, Engines) {
  ExpectRegistryContract(
      Engines(),
      std::vector<proto::Protocol>{
          proto::Protocol::kS2pl, proto::Protocol::kG2pl,
          proto::Protocol::kC2pl, proto::Protocol::kCbl,
          proto::Protocol::kO2pl, proto::Protocol::kNoWait,
          proto::Protocol::kWaitDie, proto::Protocol::kWoundWait,
          proto::Protocol::kOcc, proto::Protocol::kOrdered},
      "engine",
      "s2pl, g2pl, c2pl, cbl, o2pl, nowait, waitdie, woundwait, occ, ordered",
      [](const EngineInfo& row) { return row.label; });
  for (const EngineInfo& info : Engines()) {
    EXPECT_EQ(FindEngine(info.name), &info) << info.name;
  }
  EXPECT_EQ(FindEngine("bogus"), nullptr);
}

// The engine labels are the display strings the result tables print
// (proto::ToString(Protocol)); the goldens pin them, so their text stays.
TEST(RegistryContractTest, EngineLabelsKeepTheirText) {
  const std::pair<proto::Protocol, const char*> kLabels[] = {
      {proto::Protocol::kS2pl, "s-2PL"},     {proto::Protocol::kG2pl, "g-2PL"},
      {proto::Protocol::kC2pl, "c-2PL"},     {proto::Protocol::kCbl, "CBL"},
      {proto::Protocol::kO2pl, "O2PL"},      {proto::Protocol::kNoWait, "nw-2PL"},
      {proto::Protocol::kWaitDie, "wd-2PL"}, {proto::Protocol::kOcc, "OCC"},
      {proto::Protocol::kOrdered, "or-2PL"},
      {proto::Protocol::kWoundWait, "ww-2PL"},
  };
  ASSERT_EQ(std::size(kLabels), Engines().size());
  for (const auto& [protocol, label] : kLabels) {
    EXPECT_STREQ(proto::ToString(protocol), label);
  }
}

TEST(RegistryContractTest, CommitPaths) {
  ExpectRegistryContract(
      proto::CommitPaths(),
      std::vector<proto::CommitPath>{
          proto::CommitPath::kClassic, proto::CommitPath::kEarly,
          proto::CommitPath::kFastPath, proto::CommitPath::kCoord},
      "commit path", "classic, early, fastpath, coord",
      [](const proto::CommitPathInfo& row) { return row.name; });
}

TEST(RegistryContractTest, LeaseModes) {
  ExpectRegistryContract(
      lease::LeaseModes(),
      std::vector<lease::LeaseMode>{lease::LeaseMode::kNone,
                                    lease::LeaseMode::kSticky},
      "lease mode", "none, sticky",
      [](const lease::LeaseModeInfo& row) { return row.name; });
}

TEST(CcRegistryTest, CliCcFlagSetsEngineAndRejectsUnknownNames) {
  harness::CliOptions options;
  char prog[] = "bench";
  char cc[] = "--cc=occ";
  char* argv[] = {prog, cc};
  ASSERT_TRUE(harness::ParseCli(2, argv, &options).ok());
  EXPECT_EQ(options.cc, "occ");
  EXPECT_EQ(options.cc_protocol, proto::Protocol::kOcc);

  harness::CliOptions bad_options;
  char bad[] = "--cc=bogus";
  char* argv2[] = {prog, bad};
  EXPECT_FALSE(harness::ParseCli(2, argv2, &bad_options).ok());
  EXPECT_TRUE(bad_options.cc.empty());

  harness::CliOptions empty_options;
  char empty[] = "--cc=";
  char* argv3[] = {prog, empty};
  EXPECT_FALSE(harness::ParseCli(2, argv3, &empty_options).ok());
}

TEST(CcRegistryTest, CliSmokePresetUsesCiScale) {
  harness::CliOptions options;
  char prog[] = "bench";
  char smoke[] = "--smoke";
  char* argv[] = {prog, smoke};
  ASSERT_TRUE(harness::ParseCli(2, argv, &options).ok());
  EXPECT_EQ(options.scale.measured_txns, 200);
  EXPECT_EQ(options.scale.warmup_txns, 20);
  EXPECT_EQ(options.scale.runs, 1);
}

// Every factory must produce an engine that runs the standard lifecycle to
// completion on a small workload — this is what guards a registry entry
// whose `make` was never wired up.
TEST(CcRegistryTest, EveryFactoryProducesARunnableEngine) {
  for (const EngineInfo& info : Engines()) {
    proto::SimConfig config;
    config.protocol = info.protocol;
    config.num_clients = 6;
    config.latency = 5;
    config.workload.num_items = 12;
    config.measured_txns = 120;
    config.warmup_txns = 12;
    config.seed = 3;
    config.max_sim_time = 2'000'000'000;
    SCOPED_TRACE(info.name);
    const proto::RunResult result = info.make(config)->Run();
    EXPECT_FALSE(result.timed_out);
    EXPECT_GT(result.commits, 0);
  }
}

}  // namespace
}  // namespace gtpl::cc
