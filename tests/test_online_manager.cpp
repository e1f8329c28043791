/**
 * @file
 * OnlineManager tests: the event-driven OS-integration facade —
 * spin-down scheduling, polling, wake-on-access, and table
 * persistence across manager instances.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "core/online_manager.hpp"

namespace pcap::core {
namespace {

constexpr Pid kProc = 7;
constexpr Address kPcA = 0x08048010;
constexpr Address kPcB = 0x08048020;

class OnlineManagerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (std::filesystem::temp_directory_path() /
                "pcap_online_manager_test")
                   .string();
        std::filesystem::remove_all(dir_);
        config_.tableDirectory = dir_;
        config_.application = "unit-test-app";
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    OnlineManagerConfig config_;
    std::string dir_;
};

TEST_F(OnlineManagerTest, UntrainedManagerUsesBackupTimer)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    // No trained signature: the backup timeout schedules +10 s.
    EXPECT_EQ(manager.pendingShutdownAt(), secondsUs(11));
    EXPECT_FALSE(manager.poll(secondsUs(5)));
    EXPECT_EQ(manager.diskState(), power::DiskState::Idle);
    EXPECT_TRUE(manager.poll(secondsUs(11)));
    EXPECT_EQ(manager.diskState(), power::DiskState::Standby);
    manager.finish(secondsUs(20));
}

TEST_F(OnlineManagerTest, AccessWakesTheDiskAndPaysSpinUp)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    ASSERT_TRUE(manager.poll(secondsUs(11)));

    const TimeUs completion =
        manager.onIo(kProc, secondsUs(30), kPcA, 3, 5);
    // 1.6 s spin-up plus one block of service.
    EXPECT_GE(completion, secondsUs(31.6));
    // Two spin-ups: the manager had already spun the idle disk down
    // at t=0 (every process consents before any I/O), so the very
    // first access paid a spin-up too.
    EXPECT_EQ(manager.spinUps(), 2u);
    manager.finish(secondsUs(40));
}

TEST_F(OnlineManagerTest, TrainingEnablesImmediateShutdown)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    // A 30 s idle period trains the signature...
    manager.onIo(kProc, secondsUs(31), kPcA, 3, 5);
    // ...so the repeat consents after the 1 s wait-window instead
    // of the 10 s backup timer — gated only by the end of the
    // access's own service (the disk was asleep, so it spins up
    // first).
    const auto &disk = config_.disk;
    EXPECT_EQ(manager.pendingShutdownAt(),
              secondsUs(31) + disk.spinUpTime +
                  disk.serviceTimePerBlock);
    EXPECT_EQ(manager.tableEntries(), 1u);
    manager.finish(secondsUs(40));
}

TEST_F(OnlineManagerTest, TablePersistsAcrossInstances)
{
    {
        OnlineManager manager(config_);
        manager.processStart(kProc, 0);
        manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
        manager.onIo(kProc, secondsUs(31), kPcA, 3, 5);
        manager.processExit(kProc, secondsUs(32));
        manager.finish(secondsUs(33)); // persists the table
    }

    OnlineManager reborn(config_);
    EXPECT_EQ(reborn.tableEntries(), 1u);
    reborn.processStart(kProc, 0);
    reborn.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    // First I/O of the new run already predicts: the spin-down waits
    // only for the wait-window / end of service, not the 10 s backup
    // timer (the access spun the sleeping disk up first).
    const auto &disk = config_.disk;
    EXPECT_EQ(reborn.pendingShutdownAt(),
              secondsUs(1) + disk.spinUpTime +
                  disk.serviceTimePerBlock);
    reborn.finish(secondsUs(10));
}

TEST_F(OnlineManagerTest, InMemoryModeNeverTouchesDisk)
{
    config_.tableDirectory.clear();
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    manager.onIo(kProc, secondsUs(31), kPcA, 3, 5);
    EXPECT_EQ(manager.persist(), "");
    manager.finish(secondsUs(40));
    EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(OnlineManagerTest, MultipleProcessesMustAllConsent)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.processStart(kProc + 1, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    manager.onIo(kProc + 1, secondsUs(4), kPcB, 4, 6);
    // Both untrained: the later backup timer rules (4 + 10 s).
    EXPECT_EQ(manager.pendingShutdownAt(), secondsUs(14));

    manager.processExit(kProc + 1, secondsUs(5));
    // The exit releases the later constraint.
    EXPECT_EQ(manager.pendingShutdownAt(), secondsUs(11));
    manager.finish(secondsUs(20));
}

TEST_F(OnlineManagerTest, NoPendingShutdownWhileInStandby)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    ASSERT_TRUE(manager.poll(secondsUs(30)));
    EXPECT_EQ(manager.pendingShutdownAt(), kTimeNever);
    EXPECT_FALSE(manager.poll(secondsUs(40)));
    manager.finish(secondsUs(50));
}

TEST_F(OnlineManagerTest, EnergyAndCountersAccumulate)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    manager.poll(secondsUs(11));
    manager.onIo(kProc, secondsUs(40), kPcA, 3, 5);
    manager.finish(secondsUs(50));

    // Three spin-downs: the idle system at t=0, the backup-timer one
    // at 11 s, and the one finish() lets happen at 50 s; two wakes.
    EXPECT_EQ(manager.shutdowns(), 3u);
    EXPECT_EQ(manager.spinUps(), 2u);
    EXPECT_GT(manager.energy().total(), 0.0);
    EXPECT_GT(
        manager.energy().get(power::EnergyCategory::PowerCycle),
        0.0);
}

TEST_F(OnlineManagerTest, EnergyBeforeFinishPanics)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.onIo(kProc, secondsUs(1), kPcA, 3, 5);
    EXPECT_DEATH((void)manager.energy(), "before finish");
    manager.finish(secondsUs(2));
    EXPECT_GT(manager.energy().total(), 0.0);
}

TEST_F(OnlineManagerTest, UseAfterFinishPanics)
{
    OnlineManager manager(config_);
    manager.processStart(kProc, 0);
    manager.finish(secondsUs(1));
    EXPECT_DEATH(manager.onIo(kProc, secondsUs(2), kPcA, 3, 5),
                 "finish");
}

} // namespace
} // namespace pcap::core
