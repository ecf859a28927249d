// Unit tests for the characterized standard-cell library (src/tech/library.*),
// including the paper's Table 2 qualitative findings.

#include "tech/library.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "tech/units.h"

namespace nbtisim::tech {
namespace {

class LibraryTest : public ::testing::Test {
 protected:
  Library lib_;
};

TEST_F(LibraryTest, ContainsTheFullCellSet) {
  for (const char* name :
       {"INV", "BUF", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4",
        "AND2", "AND3", "AND4", "OR2", "OR3", "OR4", "XOR2", "XNOR2"}) {
    EXPECT_NO_THROW(lib_.find(name)) << name;
  }
  EXPECT_EQ(lib_.num_cells(), 16);
}

TEST_F(LibraryTest, FindRejectsUnknownCell) {
  EXPECT_THROW(lib_.find("NAND8"), std::out_of_range);
}

TEST_F(LibraryTest, IdForMapsFunctions) {
  EXPECT_EQ(lib_.id_for(GateFn::Not, 1), lib_.find("INV"));
  EXPECT_EQ(lib_.id_for(GateFn::Nand, 3), lib_.find("NAND3"));
  EXPECT_EQ(lib_.id_for(GateFn::Xor, 2), lib_.find("XOR2"));
  EXPECT_THROW(lib_.id_for(GateFn::Nand, 5), std::out_of_range);
}

TEST_F(LibraryTest, FnOfRoundTrips) {
  EXPECT_EQ(lib_.fn_of(lib_.find("NOR3")), GateFn::Nor);
  EXPECT_EQ(lib_.fn_of(lib_.find("XNOR2")), GateFn::Xnor);
  EXPECT_EQ(lib_.fn_of(lib_.find("OR4")), GateFn::Or);
  EXPECT_EQ(lib_.fn_of(lib_.find("BUF")), GateFn::Buf);
}

TEST_F(LibraryTest, InputCapPositiveAndBoundsChecked) {
  const CellId nand2 = lib_.find("NAND2");
  EXPECT_GT(lib_.input_cap(nand2, 0), 0.0);
  EXPECT_GT(lib_.input_cap(nand2, 1), 0.0);
  EXPECT_THROW(lib_.input_cap(nand2, 2), std::out_of_range);
}

TEST_F(LibraryTest, LeakageVariesWithInputVector) {
  const CellId nand2 = lib_.find("NAND2");
  const double l00 = lib_.cell_leakage(nand2, 0b00, 400.0);
  const double l11 = lib_.cell_leakage(nand2, 0b11, 400.0);
  // Stacking effect: 00 state leaks several times less than 11.
  EXPECT_LT(l00 * 3.0, l11);
}

TEST_F(LibraryTest, LeakageRejectsOutOfRangeVector) {
  EXPECT_THROW(lib_.cell_leakage(lib_.find("INV"), 4, 400.0),
               std::out_of_range);
}

// Table 2 structure: MLV of each family, and its NBTI polarity.
TEST_F(LibraryTest, Table2MinLeakageVectors) {
  const LeakageTable t(lib_, 400.0);
  // NAND/AND: all-zero input minimizes leakage (NMOS stack off).
  EXPECT_EQ(t.min_leakage_vector(lib_.find("NAND2")), 0u);
  EXPECT_EQ(t.min_leakage_vector(lib_.find("NAND3")), 0u);
  EXPECT_EQ(t.min_leakage_vector(lib_.find("AND2")), 0u);
  // NOR/OR: all-one input minimizes leakage (PMOS stack off).
  EXPECT_EQ(t.min_leakage_vector(lib_.find("NOR2")), 0b11u);
  EXPECT_EQ(t.min_leakage_vector(lib_.find("NOR3")), 0b111u);
  EXPECT_EQ(t.min_leakage_vector(lib_.find("OR2")), 0b11u);
  // INV: input 0 leaves the (narrower) NMOS leaking -> lower leakage.
  EXPECT_EQ(t.min_leakage_vector(lib_.find("INV")), 0u);
}

TEST_F(LibraryTest, LeakageTableMatchesDirectComputation) {
  const LeakageTable t(lib_, 330.0);
  const CellId nor3 = lib_.find("NOR3");
  for (std::uint32_t v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(t.leakage(nor3, v), lib_.cell_leakage(nor3, v, 330.0));
  }
}

TEST_F(LibraryTest, ExpectedLeakageIsProbabilityWeightedAverage) {
  const LeakageTable t(lib_, 400.0);
  const CellId inv = lib_.find("INV");
  const double l0 = t.leakage(inv, 0);
  const double l1 = t.leakage(inv, 1);
  const std::vector<double> sp{0.25};
  EXPECT_NEAR(t.expected_leakage(inv, sp), 0.75 * l0 + 0.25 * l1, 1e-18);
}

TEST_F(LibraryTest, ExpectedLeakageBoundedByExtremes) {
  const LeakageTable t(lib_, 400.0);
  const CellId nand3 = lib_.find("NAND3");
  double lo = 1e9, hi = 0.0;
  for (std::uint32_t v = 0; v < 8; ++v) {
    lo = std::min(lo, t.leakage(nand3, v));
    hi = std::max(hi, t.leakage(nand3, v));
  }
  const std::vector<double> sp{0.3, 0.6, 0.9};
  const double e = t.expected_leakage(nand3, sp);
  EXPECT_GE(e, lo);
  EXPECT_LE(e, hi);
}

TEST_F(LibraryTest, ExpectedLeakageRejectsPinMismatch) {
  const LeakageTable t(lib_, 400.0);
  const std::vector<double> sp{0.5};
  EXPECT_THROW(t.expected_leakage(lib_.find("NAND2"), sp),
               std::invalid_argument);
}

TEST_F(LibraryTest, DelayIncreasesWithLoad) {
  const CellId inv = lib_.find("INV");
  const double d1 = lib_.cell_delay(inv, 1e-15, 400.0);
  const double d2 = lib_.cell_delay(inv, 10e-15, 400.0);
  EXPECT_GT(d2, d1);
}

TEST_F(LibraryTest, DelayIncreasesWithNbtiShift) {
  const CellId nor2 = lib_.find("NOR2");
  const double fresh = lib_.cell_delay(nor2, 2e-15, 400.0, 0.0);
  const double aged = lib_.cell_delay(nor2, 2e-15, 400.0, 0.047);
  EXPECT_GT(aged, fresh);
  // ~47 mV on a 780 mV overdrive with alpha 1.3: below 20% delay growth.
  EXPECT_LT(aged / fresh, 1.2);
}

TEST_F(LibraryTest, DelayThrowsWhenDvthKillsTheDevice) {
  const CellId inv = lib_.find("INV");
  EXPECT_THROW(lib_.cell_delay(inv, 1e-15, 300.0, 0.9), std::domain_error);
}

TEST_F(LibraryTest, CompositeCellsAreSlowerThanTheirCore) {
  const double d_nand = lib_.cell_delay(lib_.find("NAND2"), 2e-15, 400.0);
  const double d_and = lib_.cell_delay(lib_.find("AND2"), 2e-15, 400.0);
  EXPECT_GT(d_and, d_nand);
}

TEST_F(LibraryTest, TypicalGateDelayInPicosecondBand) {
  const double d = lib_.cell_delay(lib_.find("NAND2"), 2e-15, 400.0);
  EXPECT_GT(to_ps(d), 1.0);
  EXPECT_LT(to_ps(d), 500.0);
}

// Leakage must increase with temperature for every cell and every vector.
class LibraryLeakageSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(LibraryLeakageSweep, LeakageMonotoneInTemperature) {
  const Library lib;
  const CellId id = lib.find(GetParam());
  const int pins = lib.cell(id).num_pins();
  for (std::uint32_t v = 0; v < (1u << pins); ++v) {
    const double cold = lib.cell_leakage(id, v, 330.0);
    const double hot = lib.cell_leakage(id, v, 400.0);
    EXPECT_GT(hot, cold) << GetParam() << " vector " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, LibraryLeakageSweep,
                         ::testing::Values("INV", "NAND2", "NAND4", "NOR2",
                                           "NOR4", "AND3", "OR3", "XOR2",
                                           "XNOR2", "BUF"));

TEST_F(LibraryTest, LeakageTableRejectsBadTemperatureOrOffset) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {nan, inf, 0.0, -300.0}) {
    EXPECT_THROW(LeakageTable(lib_, t), std::invalid_argument) << t;
    EXPECT_THROW(lib_.leakage_table(t), std::invalid_argument) << t;
  }
  EXPECT_THROW(LeakageTable(lib_, 330.0, nan), std::invalid_argument);
  EXPECT_THROW(lib_.leakage_table(330.0, inf), std::invalid_argument);
}

TEST_F(LibraryTest, LeakageMemoIsSharedByCopiesAndOutlivesThem) {
  std::shared_ptr<const LeakageTable> kept;
  {
    const Library copy = lib_;
    kept = copy.leakage_table(350.0);
    EXPECT_EQ(lib_.leakage_table(350.0), kept);
    EXPECT_NE(lib_.leakage_table(350.0, 0.08), kept);
    EXPECT_NE(lib_.leakage_table(351.0), kept);
    EXPECT_NE(Library().leakage_table(350.0), kept);  // a new memo
  }
  const Library other;
  const CellId nand3 = other.find("NAND3");
  EXPECT_EQ(kept->leakage(nand3, 5), other.cell_leakage(nand3, 5, 350.0));
  EXPECT_THROW(kept->leakage(nand3, 8), std::out_of_range);
  EXPECT_THROW(kept->leakage(other.num_cells(), 0), std::out_of_range);
}

}  // namespace
}  // namespace nbtisim::tech
