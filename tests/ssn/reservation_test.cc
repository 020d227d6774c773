#include <gtest/gtest.h>

#include "ssn/reservation.hh"

namespace tsm {
namespace {

TEST(ReservationLedger, EmptyIsFreeEverywhere)
{
    ReservationLedger ledger(4);
    EXPECT_EQ(ledger.earliestFree(0, true, 0), 0u);
    EXPECT_EQ(ledger.earliestFree(3, false, 1000), 1000u);
    EXPECT_EQ(ledger.totalReservations(), 0u);
    EXPECT_EQ(ledger.horizon(), 0u);
}

TEST(ReservationLedger, ReserveBlocksWindow)
{
    ReservationLedger ledger(1);
    ledger.reserve(0, true, 100);
    // Anything overlapping [100, 124) is pushed to 124.
    EXPECT_EQ(ledger.earliestFree(0, true, 100), 124u);
    EXPECT_EQ(ledger.earliestFree(0, true, 110), 124u);
    EXPECT_EQ(ledger.earliestFree(0, true, 123), 124u);
    // A window ending exactly at 100 is fine.
    EXPECT_EQ(ledger.earliestFree(0, true, 76), 76u);
    // One starting before that overlaps.
    EXPECT_EQ(ledger.earliestFree(0, true, 77), 124u);
    EXPECT_EQ(ledger.horizon(), 124u);
}

TEST(ReservationLedger, DirectionsIndependent)
{
    ReservationLedger ledger(1);
    ledger.reserve(0, true, 0);
    EXPECT_TRUE(ledger.free(0, false, 0));
    ledger.reserve(0, false, 0);
    EXPECT_EQ(ledger.totalReservations(), 2u);
}

TEST(ReservationLedger, SkipsOverMultipleReservations)
{
    ReservationLedger ledger(1);
    ledger.reserve(0, true, 0);
    ledger.reserve(0, true, 24);
    ledger.reserve(0, true, 48);
    EXPECT_EQ(ledger.earliestFree(0, true, 0), 72u);
    // Gap in the middle is found.
    ReservationLedger l2(1);
    l2.reserve(0, true, 0);
    l2.reserve(0, true, 48);
    EXPECT_EQ(l2.earliestFree(0, true, 0), 24u);
}

TEST(ReservationLedger, DoubleBookPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ReservationLedger ledger(1);
    ledger.reserve(0, true, 10);
    EXPECT_DEATH(ledger.reserve(0, true, 20), "conflict");
}

TEST(ReservationLedger, CustomWindow)
{
    ReservationLedger ledger(1, 10);
    ledger.reserve(0, true, 0);
    EXPECT_EQ(ledger.earliestFree(0, true, 0), 10u);
}

} // namespace
} // namespace tsm
