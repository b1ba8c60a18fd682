// Unit tests for configuration validation and common utilities.

#include "protocols/config.h"

#include <gtest/gtest.h>

#include "common/status.h"

namespace gtpl::proto {
namespace {

TEST(ConfigTest, DefaultsValidate) {
  SimConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadClientCount) {
  SimConfig config;
  config.num_clients = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsNegativeLatency) {
  SimConfig config;
  config.latency = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadItemRange) {
  SimConfig config;
  config.workload.min_items_per_txn = 5;
  config.workload.max_items_per_txn = 3;
  EXPECT_FALSE(config.Validate().ok());
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 100;  // > pool size
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadReadProbability) {
  SimConfig config;
  config.workload.read_prob = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.workload.read_prob = -0.1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsInvertedThinkRange) {
  SimConfig config;
  config.workload.min_think = 5;
  config.workload.max_think = 2;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsZeroMeasuredTxns) {
  SimConfig config;
  config.measured_txns = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, OnlyCblIsConfinedToTheClassicCommitPath) {
  // c-2PL and O2PL run on the lock engine and the OCC certifier and inherit
  // their commit paths; CBL's own engine runs only the classic 2PC.
  SimConfig config;
  config.num_servers = 2;
  config.commit_path = CommitPath::kEarly;
  config.protocol = Protocol::kCbl;
  EXPECT_FALSE(config.Validate().ok());
  config.num_servers = 1;
  EXPECT_TRUE(config.Validate().ok());
  config.num_servers = 2;
  for (Protocol protocol : {Protocol::kC2pl, Protocol::kO2pl}) {
    config.protocol = protocol;
    EXPECT_TRUE(config.Validate().ok()) << ToString(protocol);
  }
}

TEST(StatusTest, OkAndErrorForms) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status err = Status::InvalidArgument("bad flag");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad flag");
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("y").code(),
            Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace gtpl::proto
