/**
 * @file
 * The rig library's construction contract: device naming, the domain
 * a rig lives in, and which WAL flavours replicate.
 */

#include <gtest/gtest.h>

#include <string>

#include "rigs/rig.hh"

using namespace bssd;
using rigs::WalKind;

TEST(Rigs, DeviceNameNamesPrimaryFollowerAndDomain)
{
    for (WalKind k : {WalKind::baRepl, WalKind::baReplSingle}) {
        SCOPED_TRACE(rigs::walName(k));
        rigs::Rig rig = rigs::makeRig(rigs::gcSpec(k), "shard3");
        EXPECT_EQ(rig.dataDevice().config().name, "shard3");
        EXPECT_EQ(rig.domain().name(), "shard3");
        ASSERT_NE(rig.followerTwoB, nullptr);
        EXPECT_EQ(rig.followerTwoB->device().config().name,
                  "shard3.follower");
        EXPECT_NE(rig.repl(), nullptr);
    }
}

TEST(Rigs, UnnamedRigsKeepThePresetName)
{
    rigs::Rig rig = rigs::makeTinyRig(WalKind::baRepl);
    const std::string preset = ssd::SsdConfig::tiny().name;
    EXPECT_EQ(rig.dataDevice().config().name, preset);
    EXPECT_EQ(rig.followerTwoB->device().config().name, preset);
}

TEST(Rigs, BlockRigLivesInItsDevicesDomain)
{
    rigs::Rig rig = rigs::makeRig(rigs::tinySpec(WalKind::block), "blk");
    EXPECT_EQ(rig.twoB, nullptr);
    EXPECT_EQ(rig.repl(), nullptr);
    EXPECT_EQ(&rig.domain(), &rig.blockDev->domain());
    EXPECT_EQ(rig.domain().name(), "blk");
}
