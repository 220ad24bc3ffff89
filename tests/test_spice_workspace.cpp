// Workspace-reuse tests for the SPICE engine: sharing a SimulatorWorkspace
// across solves, timesteps, and circuits of different sizes must be
// bit-identical to running with fresh buffers, and the Newton loop must stay
// allocation-free once the workspace is warm (O(1) heap traffic per solve
// instead of O(iterations)).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "circuits/spice_backend.hpp"
#include "pdk/mos_params.hpp"
#include "spice/circuit.hpp"
#include "spice/simulator.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter.  Replacing operator new/delete in this test
// binary lets the allocation-free claim be checked directly rather than
// inferred from timings.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms (std::stable_sort's buffer, for one) must come from malloc
// too, or a sanitizer sees the free() below release another allocator's
// memory.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace glova::spice {
namespace {

/// StrongARM latch netlist at a mid-range sizing (the bench_micro point).
Circuit sal_netlist() {
  static const circuits::StrongArmLatchSpice sal;
  const std::vector<double> x01 = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2,
                                   0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.01};
  const auto x = sal.sizing().denormalize(x01);
  return sal.build_netlist(x, pdk::typical_corner(), {});
}

/// DRAM OCSA-style netlist: a latch-type open-bitline sense amp — cross
/// coupled inverter pair on the bitline nodes with precharge devices and
/// bitline capacitance.  Smaller than the SAL system, so running it between
/// SAL solves exercises workspace resizing in both directions.
Circuit ocsa_netlist() {
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const auto pmos = pdk::mos_params(true, pdk::typical_corner(), 60e-9);
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto pre = ckt.node("pre");
  const auto bl = ckt.node("bl");
  const auto blb = ckt.node("blb");
  const auto gnd = Circuit::ground();
  ckt.add_vsource("VDD", vdd, gnd, Waveform::dc(0.9));
  // Precharge gate held high: both precharge PMOS off, latch free to resolve.
  ckt.add_vsource("VPRE", pre, gnd, Waveform::dc(0.9));
  ckt.add_mosfet("MNa", bl, blb, gnd, nmos, 2e-6, 60e-9);
  ckt.add_mosfet("MNb", blb, bl, gnd, nmos, 2e-6, 60e-9);
  ckt.add_mosfet("MPa", bl, blb, vdd, pmos, 4e-6, 60e-9);
  ckt.add_mosfet("MPb", blb, bl, vdd, pmos, 4e-6, 60e-9);
  ckt.add_mosfet("MPpre_a", bl, pre, vdd, pmos, 2e-6, 60e-9);
  ckt.add_mosfet("MPpre_b", blb, pre, vdd, pmos, 2e-6, 60e-9);
  ckt.add_capacitor("Cbl", bl, gnd, 40e-15);
  ckt.add_capacitor("Cblb", blb, gnd, 40e-15);
  return ckt;
}

TransientSpec sal_tran_spec() {
  TransientSpec spec;
  spec.t_stop = 2e-9;
  spec.dt = 2e-12;
  spec.record = {"out_a", "out_b"};
  return spec;
}

TransientSpec ocsa_tran_spec() {
  TransientSpec spec;
  spec.t_stop = 1e-9;
  spec.dt = 2e-12;
  spec.use_ic = true;
  // Sense operation: a small differential on the bitlines regenerates.
  spec.initial_conditions["bl"] = 0.50;
  spec.initial_conditions["blb"] = 0.40;
  spec.record = {"bl", "blb"};
  return spec;
}

bool traces_identical(const TransientResult& a, const TransientResult& b) {
  if (a.times != b.times) return false;
  if (a.traces.size() != b.traces.size()) return false;
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    if (a.traces[i].name != b.traces[i].name) return false;
    if (a.traces[i].values != b.traces[i].values) return false;  // bit-exact
  }
  return true;
}

TEST(SimulatorWorkspace, OperatingPointBitIdenticalAcrossReuse) {
  const Circuit sal = sal_netlist();
  const Circuit ocsa = ocsa_netlist();

  SimulatorWorkspace fresh;
  const OpResult reference = Simulator(sal, {}, &fresh).operating_point();
  ASSERT_TRUE(reference.converged);

  // One workspace shared by circuits of different sizes, repeatedly.
  SimulatorWorkspace shared;
  const OpResult ocsa_ref = Simulator(ocsa, {}, &shared).operating_point();
  ASSERT_TRUE(ocsa_ref.converged);
  for (int round = 0; round < 3; ++round) {
    const OpResult sal_again = Simulator(sal, {}, &shared).operating_point();
    ASSERT_TRUE(sal_again.converged);
    EXPECT_EQ(sal_again.node_voltages, reference.node_voltages);
    EXPECT_EQ(sal_again.vsource_currents, reference.vsource_currents);
    const OpResult ocsa_again = Simulator(ocsa, {}, &shared).operating_point();
    EXPECT_EQ(ocsa_again.node_voltages, ocsa_ref.node_voltages);
  }
}

TEST(SimulatorWorkspace, TransientBitIdenticalAcrossReuse) {
  const Circuit sal = sal_netlist();
  const Circuit ocsa = ocsa_netlist();

  SimulatorWorkspace fresh_a;
  SimulatorWorkspace fresh_b;
  const TransientResult sal_ref = Simulator(sal, {}, &fresh_a).transient(sal_tran_spec());
  const TransientResult ocsa_ref = Simulator(ocsa, {}, &fresh_b).transient(ocsa_tran_spec());
  ASSERT_TRUE(sal_ref.ok) << sal_ref.error;
  ASSERT_TRUE(ocsa_ref.ok) << ocsa_ref.error;

  // Interleave both circuits through one workspace: results must not depend
  // on what the buffers held before.
  SimulatorWorkspace shared;
  const TransientResult sal_shared = Simulator(sal, {}, &shared).transient(sal_tran_spec());
  const TransientResult ocsa_shared = Simulator(ocsa, {}, &shared).transient(ocsa_tran_spec());
  const TransientResult sal_again = Simulator(sal, {}, &shared).transient(sal_tran_spec());
  EXPECT_TRUE(traces_identical(sal_ref, sal_shared));
  EXPECT_TRUE(traces_identical(ocsa_ref, ocsa_shared));
  EXPECT_TRUE(traces_identical(sal_ref, sal_again));

  // The OCSA really regenerated (sanity that the netlist is meaningful).
  EXPECT_GT(ocsa_ref.trace("bl").back(), 0.8);
  EXPECT_LT(ocsa_ref.trace("blb").back(), 0.1);
}

TEST(SimulatorWorkspace, NewtonLoopIsAllocationFreeOnceWarm) {
  const Circuit sal = sal_netlist();
  SimulatorWorkspace ws;
  Simulator sim(sal, {}, &ws);
  const OpResult warmup = sim.operating_point();
  ASSERT_TRUE(warmup.converged);

  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  const OpResult counted = sim.operating_point();
  g_alloc_counting.store(false);
  ASSERT_TRUE(counted.converged);

  // The solve itself is allocation-free: only the returned OpResult vectors
  // and the initial iterate may allocate.  Before the workspace refactor the
  // Newton loop allocated the matrix, RHS, factorization copy, permutation,
  // and solution vector on every iteration (5+ allocations x ~10+ iters).
  // The lower bound proves the replaced operator new is actually counting.
  EXPECT_GE(g_alloc_count.load(), 1u);
  EXPECT_LE(g_alloc_count.load(), 8u);
}

TEST(SimulatorWorkspace, TransientHeapTrafficIsResultOnlyOnceWarm) {
  const Circuit sal = sal_netlist();
  const TransientSpec spec = sal_tran_spec();  // 1000 timesteps
  SimulatorWorkspace ws;
  Simulator sim(sal, {}, &ws);
  const TransientResult warmup = sim.transient(spec);
  ASSERT_TRUE(warmup.ok);

  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  const TransientResult counted = sim.transient(spec);
  g_alloc_counting.store(false);
  ASSERT_TRUE(counted.ok);

  // ~1000 steps x several Newton iterations each ran with zero per-iteration
  // allocations; what remains is building the returned waveforms (amortized
  // vector growth) and per-call state.  The pre-refactor loop allocated well
  // over five entries per Newton iteration (tens of thousands total).
  EXPECT_GE(g_alloc_count.load(), 1u);
  EXPECT_LE(g_alloc_count.load(), 500u);
}

TEST(SimulatorWorkspace, ThreadLocalWorkspaceIsStablePerThread) {
  SimulatorWorkspace* first = &thread_local_workspace();
  SimulatorWorkspace* second = &thread_local_workspace();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace glova::spice
