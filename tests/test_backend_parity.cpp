// Behavioral-vs-SPICE parity harness (ISSUE 5 tentpole deliverable).
//
// For every Table II testcase this suite evaluates a grid of realistic
// designs and PVT corners on both evaluator backends and asserts the
// metrics agree within documented tolerance bands.  The bands pin the
// *relationship* between the closed-form behavioral models and the
// transistor-level MNA netlists: they are wide where the models genuinely
// differ (see below) but tight enough that a broken netlist — a latch that
// stops deciding, a reservoir that stops drooping, a sense amp that flips
// the wrong way — lands far outside them.
//
// The suite runs each testcase under BOTH channel models (Level-1 and EKV,
// see mos_model.hpp): separate band rows per model, with the process-wide
// default switched through an RAII guard.  The ekv rows additionally
// include the cold low-voltage corner (SS / 0.8 V / -40 C) that the hard
// Level-1 cutoff cannot evaluate at all — converging there without source
// stepping crutches is an explicit acceptance criterion of ISSUE 10.
//
// Why the bands are not ±5 %:
//   * the behavioral models are first-order analytics (square-law/EKV
//     hand calculations), while the SPICE backend solves the full MNA
//     system; absolute delays/energies legitimately differ by factors;
//   * slow/low-voltage corners (SS @ 0.8 V) operate near or below
//     threshold, where the analytic delay model and the transient solver
//     diverge most — at the cold ekv-only corner the SAL decision rides
//     weak-inversion currents and the set-delay ratio stretches to ~31;
//   * the FIA noise metric divides the latch-offset term by the measured
//     gain, amplifying any gain disagreement (ratio up to ~62 at the cold
//     corner under nominal mismatch);
//   * SAL noise reuses the analytic budget on both backends (the simulated
//     AC/noise pass is opt-in via spice_noise), so its ratio is pinned at
//     exactly 1 and its band is tight.
//
// Recorded ratio ranges (spice / behavioral, over the shared grid in
// backend_parity_grid.hpp, nominal + drawn mismatch, 2026 toolchain) and
// the shipped bands with headroom:
//
//   level1 (corners TT/0.9/27, SS/0.8/85, FF/1.0/-25):
//     SAL   power      0.12..0.37   band [0.05, 0.8]
//           set delay  1.11..9.58   band [0.5, 16.0]
//           reset      0.69..2.03   band [0.35, 4.0]
//           noise      1.00         band [0.99, 1.01]
//     FIA   energy     0.13..0.57   band [0.06, 1.0]
//           noise      0.70..20.7   band [0.3, 35.0]
//     OCSA  dVD0       0.35..1.23   band [0.12, 2.5]
//           dVD1       0.46..2.26   band [0.2, 3.6]
//           energy     0.24..1.02   band [0.1, 1.8]
//
//   ekv (same corners + SS/0.8/-40 cold):
//     SAL   power      0.06..0.40   band [0.03, 0.8]
//           set delay  0.98..27.6   band [0.5, 50.0]
//           reset      0.30..2.04   band [0.15, 4.0]
//           noise      1.00         band [0.999, 1.001]
//     FIA   energy     0.22..0.59   band [0.12, 1.0]
//           noise      0.99..61.8   band [0.5, 100.0]
//     OCSA  dVD0       0.35..1.36   band [0.15, 2.7]
//           dVD1       0.40..2.07   band [0.2, 3.6]
//           energy     0.24..0.99   band [0.12, 1.8]
//
// Re-recording: if an intentional model/netlist change moves a ratio out
// of band, rerun this suite — each failure prints the measured ratio —
// and update the table above plus the bands below together.  The CMake
// target `probe_parity` prints the full grid in one shot: run it plain and
// with `h`, then with `ekv` and `ekv h`, and take the envelope.
#include <gtest/gtest.h>

#include <cmath>

#include "backend_parity_grid.hpp"
#include "circuits/registry.hpp"
#include "spice/simulator.hpp"
#include "spice_test_context.hpp"

namespace glova {
namespace {

struct MetricBand {
  const char* metric;
  double lo;  ///< min accepted spice/behavioral ratio
  double hi;  ///< max accepted spice/behavioral ratio
};

struct ParityBands {
  circuits::Testcase tc;
  spice::MosModel model;
  std::vector<MetricBand> nominal;  ///< bands, nominal mismatch
  std::vector<MetricBand> drawn;    ///< bands, local-mismatch draws
};

// The design/corner grid and draw recipe live in backend_parity_grid.hpp
// (shared with tools/probe_parity.cpp, which regenerates the ratio table).
// Rows 0-2 assert the Level-1 default; rows 3-5 re-run the same grid under
// ekv, with the cold low-voltage corner appended.
const ParityBands kBands[] = {
    {circuits::Testcase::Sal,
     spice::MosModel::kLevel1,
     {{"power", 0.05, 0.8},
      {"set_delay", 0.5, 16.0},
      {"reset_delay", 0.35, 4.0},
      {"noise", 0.99, 1.01}},
     {{"power", 0.05, 0.8},
      {"set_delay", 0.5, 16.0},
      {"reset_delay", 0.35, 4.0},
      {"noise", 0.99, 1.01}}},
    {circuits::Testcase::Fia,
     spice::MosModel::kLevel1,
     {{"energy", 0.06, 1.0}, {"noise", 0.3, 35.0}},
     {{"energy", 0.06, 1.0}, {"noise", 0.3, 35.0}}},
    {circuits::Testcase::DramOcsa,
     spice::MosModel::kLevel1,
     {{"dVD0", 0.12, 2.5}, {"dVD1", 0.2, 3.6}, {"energy_per_bit", 0.1, 1.8}},
     {{"dVD0", 0.12, 2.5}, {"dVD1", 0.2, 3.6}, {"energy_per_bit", 0.1, 1.8}}},
    {circuits::Testcase::Sal,
     spice::MosModel::kEkv,
     {{"power", 0.03, 0.8},
      {"set_delay", 0.5, 50.0},
      {"reset_delay", 0.15, 4.0},
      {"noise", 0.999, 1.001}},
     {{"power", 0.03, 0.8},
      {"set_delay", 0.5, 50.0},
      {"reset_delay", 0.15, 4.0},
      {"noise", 0.999, 1.001}}},
    {circuits::Testcase::Fia,
     spice::MosModel::kEkv,
     {{"energy", 0.12, 1.0}, {"noise", 0.5, 100.0}},
     {{"energy", 0.12, 1.0}, {"noise", 0.5, 100.0}}},
    {circuits::Testcase::DramOcsa,
     spice::MosModel::kEkv,
     {{"dVD0", 0.15, 2.7}, {"dVD1", 0.2, 3.6}, {"energy_per_bit", 0.12, 1.8}},
     {{"dVD0", 0.15, 2.7}, {"dVD1", 0.2, 3.6}, {"energy_per_bit", 0.12, 1.8}}}};

std::vector<pdk::PvtCorner> corners_for(const ParityBands& bands) {
  auto corners = parity_grid::corners();
  if (bands.model == spice::MosModel::kEkv) {
    corners.push_back(parity_grid::cold_low_voltage_corner());
  }
  return corners;
}

const char* model_tag(const ParityBands& bands) {
  return bands.model == spice::MosModel::kEkv ? " [ekv]" : " [level1]";
}

void check_pair(const circuits::Testbench& beh, const circuits::Testbench& spc,
                std::span<const double> x, const pdk::PvtCorner& corner,
                std::span<const double> h, std::span<const MetricBand> bands,
                const std::string& label) {
  const auto mb = beh.evaluate(x, corner, h);
  const auto ms = spc.evaluate(x, corner, h);
  ASSERT_EQ(mb.size(), bands.size()) << label;
  ASSERT_EQ(ms.size(), mb.size()) << label;
  for (std::size_t mi = 0; mi < mb.size(); ++mi) {
    const std::string where = label + " metric " + bands[mi].metric;
    ASSERT_TRUE(std::isfinite(mb[mi]) && std::isfinite(ms[mi])) << where;
    ASSERT_GT(mb[mi], 0.0) << where;
    ASSERT_GT(ms[mi], 0.0) << where;
    const double ratio = ms[mi] / mb[mi];
    EXPECT_GE(ratio, bands[mi].lo) << where << " ratio " << ratio;
    EXPECT_LE(ratio, bands[mi].hi) << where << " ratio " << ratio;
  }
}

class BackendParity : public ::testing::TestWithParam<int> {};

TEST_P(BackendParity, NominalMetricsAgreeWithinBands) {
  const ParityBands& bands = kBands[GetParam()];
  const spice::ScopedTestContext numerics(spice::model_context(bands.model));
  const auto beh = circuits::make_testbench(bands.tc, circuits::Backend::Behavioral);
  const auto spc = circuits::make_testbench(bands.tc, circuits::Backend::Spice);
  const auto designs = parity_grid::designs_x01(bands.tc);
  for (std::size_t gi = 0; gi < designs.size(); ++gi) {
    const auto x = beh->sizing().denormalize(designs[gi]);
    for (const auto& corner : corners_for(bands)) {
      check_pair(*beh, *spc, x, corner, {}, bands.nominal,
                 std::string(circuits::to_string(bands.tc)) + model_tag(bands) + " design " +
                     std::to_string(gi) + " corner " + corner.name());
    }
  }
}

TEST_P(BackendParity, LocalMismatchDrawsAgreeWithinBands) {
  const ParityBands& bands = kBands[GetParam()];
  const spice::ScopedTestContext numerics(spice::model_context(bands.model));
  const auto beh = circuits::make_testbench(bands.tc, circuits::Backend::Behavioral);
  const auto spc = circuits::make_testbench(bands.tc, circuits::Backend::Spice);
  const auto designs = parity_grid::designs_x01(bands.tc);
  for (std::size_t gi = 0; gi < designs.size(); ++gi) {
    const auto x = beh->sizing().denormalize(designs[gi]);
    const auto h = parity_grid::local_draw(*beh, x, gi);
    for (const auto& corner : corners_for(bands)) {
      check_pair(*beh, *spc, x, corner, h, bands.drawn,
                 std::string(circuits::to_string(bands.tc)) + model_tag(bands) + " design " +
                     std::to_string(gi) + " corner " + corner.name() + " (drawn)");
    }
  }
}

// Both backends must describe the *same* optimization problem: identical
// sizing bounds, metric specs, and mismatch-space dimensions.
TEST_P(BackendParity, SpecsAndMismatchLayoutMatch) {
  const ParityBands& bands = kBands[GetParam()];
  const auto beh = circuits::make_testbench(bands.tc, circuits::Backend::Behavioral);
  const auto spc = circuits::make_testbench(bands.tc, circuits::Backend::Spice);
  ASSERT_EQ(beh->sizing().dimension(), spc->sizing().dimension());
  for (std::size_t i = 0; i < beh->sizing().dimension(); ++i) {
    EXPECT_DOUBLE_EQ(beh->sizing().lower[i], spc->sizing().lower[i]);
    EXPECT_DOUBLE_EQ(beh->sizing().upper[i], spc->sizing().upper[i]);
  }
  ASSERT_EQ(beh->performance().count(), spc->performance().count());
  for (std::size_t i = 0; i < beh->performance().count(); ++i) {
    EXPECT_EQ(beh->performance().metrics[i].name, spc->performance().metrics[i].name);
    EXPECT_DOUBLE_EQ(beh->performance().metrics[i].bound, spc->performance().metrics[i].bound);
  }
  const auto x = beh->sizing().denormalize(parity_grid::designs_x01(bands.tc).front());
  for (const bool global : {false, true}) {
    EXPECT_EQ(beh->mismatch_layout(x, global).dimension(),
              spc->mismatch_layout(x, global).dimension());
  }
}

INSTANTIATE_TEST_SUITE_P(AllTestcases, BackendParity, ::testing::Range(0, 6));

}  // namespace
}  // namespace glova
