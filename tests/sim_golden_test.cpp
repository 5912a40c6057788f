// Pinned simulated numbers for the plans the reference-loop oracle
// (exec_plan_test's ExecPlanGolden) does not cover: look-ahead dispatch,
// the cost-model scheduler, the baseline runners, composed batches and a
// graph-scheduled CPD window. Every value is an exact hexfloat literal:
// the simulator is deterministic, and any change to its timing rules
// must show up here as a changed number, not hide inside a tolerance.
//
// The literals hold in every preset because cmake/AmpedOptions.cmake
// compiles with -ffp-contract=off: without it GCC fuses a*b+c into an FMA
// wherever the target has one, and a -march=native Release build would
// round differently from the portable and -O0 builds. On mismatch the
// test prints the full list of observed values in the same format.
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/runner.hpp"
#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "tensor/generator.hpp"

namespace amped {
namespace {

// Named simulated quantities of one run, in a fixed order.
using Pins = std::vector<std::pair<std::string, double>>;

void pin_phases(Pins& pins, const std::string& prefix,
                const sim::Timeline& timeline) {
  for (std::size_t p = 0; p < sim::kNumPhases; ++p) {
    const auto phase = static_cast<sim::Phase>(p);
    pins.emplace_back(prefix + sim::phase_name(phase), timeline.total(phase));
  }
}

void pin_vector(Pins& pins, const std::string& prefix,
                const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    pins.emplace_back(prefix + std::to_string(i), values[i]);
  }
}

Pins pin_mttkrp(const MttkrpReport& report, const sim::Platform& platform) {
  Pins pins;
  pins.emplace_back("total_seconds", report.total_seconds);
  for (const auto& m : report.modes) {
    const std::string mode = "mode" + std::to_string(m.mode) + ".";
    pins.emplace_back(mode + "seconds", m.seconds);
    pins.emplace_back(mode + "h2d", m.h2d);
    pins.emplace_back(mode + "compute", m.compute);
    pins.emplace_back(mode + "p2p", m.p2p);
    pins.emplace_back(mode + "sync", m.sync);
    pins.emplace_back(mode + "gather_start", m.gather_start);
    pins.emplace_back(mode + "gather_finish", m.gather_finish);
    pin_vector(pins, mode + "gpu", m.per_gpu_compute);
  }
  pin_vector(pins, "per_gpu_compute.gpu", report.per_gpu_compute);
  pin_phases(pins, "aggregate.", platform.aggregate_timeline());
  return pins;
}

Pins pin_batch(const BatchReport& report, const sim::Platform& platform) {
  Pins pins;
  pins.emplace_back("total_seconds", report.total_seconds);
  for (std::size_t s = 0; s < report.steps.size(); ++s) {
    pins.emplace_back("step" + std::to_string(s) + ".seconds",
                      report.steps[s].seconds);
  }
  for (std::size_t i = 0; i < report.per_tensor_gpu_compute.size(); ++i) {
    pin_vector(pins, "tensor" + std::to_string(i) + ".gpu",
               report.per_tensor_gpu_compute[i]);
  }
  for (const auto& e : report.gather_edges) {
    const std::string edge = "gather.w" + std::to_string(e.workload) + ".i" +
                             std::to_string(e.iteration) + ".m" +
                             std::to_string(e.mode) + ".";
    pins.emplace_back(edge + "start", e.start);
    pins.emplace_back(edge + "finish", e.finish);
  }
  for (const auto& k : report.kernel_spans) {
    const std::string span = "span.w" + std::to_string(k.workload) + ".i" +
                             std::to_string(k.iteration) + ".m" +
                             std::to_string(k.mode) + ".";
    pins.emplace_back(span + "start", k.start);
    pins.emplace_back(span + "finish", k.finish);
  }
  pin_phases(pins, "aggregate.", platform.aggregate_timeline());
  return pins;
}

void expect_pinned(const Pins& got, std::initializer_list<double> want) {
  std::ostringstream observed;
  observed << std::hexfloat;
  for (const auto& [name, value] : got) {
    observed << value << ",  // " << name << "\n";
  }
  ASSERT_EQ(got.size(), want.size()) << "observed:\n" << observed.str();
  std::size_t i = 0;
  for (const double w : want) {
    EXPECT_EQ(got[i].second, w)
        << got[i].first << ": " << std::hexfloat << got[i].second << " vs "
        << w;
    ++i;
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "observed:\n" << observed.str();
  }
}

CooTensor make_tensor(std::uint64_t seed, std::vector<index_t> dims,
                      nnz_t nnz, std::vector<double> zipf = {0.8, 0.5, 0.5}) {
  GeneratorOptions opt;
  opt.dims = std::move(dims);
  opt.nnz = nnz;
  opt.zipf_exponents = std::move(zipf);
  opt.seed = seed;
  return generate_random(opt);
}

sim::Platform hetero_platform() {
  sim::PlatformConfig cfg;
  cfg.num_gpus = 4;
  cfg.workload_scale = 1000.0;
  cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                       sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
  return sim::Platform(cfg);
}

Pins run_mttkrp(sim::Platform platform, BuildStorage storage,
                SchedulingPolicy policy, bool pipelined) {
  auto input = make_tensor(901, {512, 256, 256}, 30000);
  Rng rng(902);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = platform.num_gpus();
  build.storage = storage;
  auto tensor = AmpedTensor::build(input, build);
  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  std::vector<DenseMatrix> outputs;
  const auto report =
      mttkrp_all_modes(platform, tensor, factors, outputs, options);
  return pin_mttkrp(report, platform);
}

TEST(SimGoldenTest, LookaheadHomogeneous) {
  expect_pinned(run_mttkrp(sim::make_default_platform(4, 1000.0),
                           BuildStorage::kResident,
                           SchedulingPolicy::kDynamicLookahead, false),
                {
                    0x1.5e88ff1e00e9dp-14,  // total_seconds
                    0x1.081b3fcac7a2fp-15,  // mode0.seconds
                    0x1.ed93e052d6bp-22,  // mode0.h2d
                    0x1.7f58be8827fap-14,  // mode0.compute
                    0x1.16f8b758beaa7p-15,  // mode0.p2p
                    0x1.b9e8c05a8ff8p-21,  // mode0.sync
                    0x1.8430b389eeb9ep-16,  // mode0.gather_start
                    0x1.081b3fcac7a2fp-15,  // mode0.gather_finish
                    0x1.831a632f71118p-16,  // mode0.gpu0
                    0x1.7dadae6cf8ce4p-16,  // mode0.gpu1
                    0x1.7b65c1b62361cp-16,  // mode0.gpu2
                    0x1.813526ce12a68p-16,  // mode0.gpu3
                    0x1.b50f4fa61815ep-16,  // mode1.seconds
                    0x1.cd1b917fe988p-22,  // mode1.h2d
                    0x1.6b2029d139ddp-14,  // mode1.compute
                    0x1.1b10b02f0feb8p-16,  // mode1.p2p
                    0x1.5dde379a5488p-22,  // mode1.sync
                    0x1.6dc1b33b12e42p-16,  // mode1.gather_start
                    0x1.b50f4fa61815ep-16,  // mode1.gather_finish
                    0x1.6b051ae4df6c8p-16,  // mode1.gpu0
                    0x1.6b526a1a741b5p-16,  // mode1.gpu1
                    0x1.6b0f69b8d11d9p-16,  // mode1.gpu2
                    0x1.6b19b88cc2ce6p-16,  // mode1.gpu3
                    0x1.b4de2d3c5c4b8p-16,  // mode2.seconds
                    0x1.a44e35388ddcp-22,  // mode2.h2d
                    0x1.6b051ae4df6c8p-14,  // mode2.compute
                    0x1.1c2390ed9258ep-16,  // mode2.p2p
                    0x1.2bdfe6dfbabp-22,  // mode2.sync
                    0x1.6d9090d15719cp-16,  // mode2.gather_start
                    0x1.b4de2d3c5c4b8p-16,  // mode2.gather_finish
                    0x1.6b80ccd433b78p-16,  // mode2.gpu0
                    0x1.6a602da5c45e3p-16,  // mode2.gpu1
                    0x1.6b8b1ba825685p-16,  // mode2.gpu2
                    0x1.6aa8557160349p-16,  // mode2.gpu3
                    0x1.166812ba210d6p-14,  // per_gpu_compute.gpu0
                    0x1.14d8118b4c51fp-14,  // per_gpu_compute.gpu1
                    0x1.148011c5c679ep-14,  // per_gpu_compute.gpu2
                    0x1.15bdcd330d6a6p-14,  // per_gpu_compute.gpu3
                    0x1.155f80cf9050ep-12,  // aggregate.compute
                    0x1.57bf69c2d385p-20,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.19496bf387e65p-14,  // aggregate.p2p
                    0x1.7f63e7cbcbcap-20,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, LookaheadHeterogeneous) {
  expect_pinned(run_mttkrp(hetero_platform(), BuildStorage::kResident,
                           SchedulingPolicy::kDynamicLookahead, false),
                {
                    0x1.4048ace9f1a9dp-14,  // total_seconds
                    0x1.ef5db93d8e56ep-16,  // mode0.seconds
                    0x1.ed93e052d6b4p-22,  // mode0.h2d
                    0x1.45267049bc664p-14,  // mode0.compute
                    0x1.2a4c84bdea5bep-15,  // mode0.p2p
                    0x1.32372b489ebfcp-18,  // mode0.sync
                    0x1.50041fccc2199p-16,  // mode0.gather_start
                    0x1.ef5db93d8e56ep-16,  // mode0.gather_finish
                    0x1.4eedcf7244713p-16,  // mode0.gpu0
                    0x1.429816dc30a48p-16,  // mode0.gpu1
                    0x1.3f3348a5773ep-16,  // mode0.gpu2
                    0x1.43e0923305456p-16,  // mode0.gpu3
                    0x1.881a83f231c02p-16,  // mode1.seconds
                    0x1.cd1b917fe99p-22,  // mode1.h2d
                    0x1.316e5f93c30a2p-14,  // mode1.compute
                    0x1.319d1fcfc2e5p-16,  // mode1.p2p
                    0x1.0ef81b1fc261p-19,  // mode1.sync
                    0x1.3610201614484p-16,  // mode1.gather_start
                    0x1.881a83f231c02p-16,  // mode1.gather_finish
                    0x1.2e051f88bfff5p-16,  // mode1.gpu0
                    0x1.2f6de682cb2fp-16,  // mode1.gpu1
                    0x1.3449e3bc8ad49p-16,  // mode1.gpu2
                    0x1.33fc9486f625cp-16,  // mode1.gpu3
                    0x1.89aa767806904p-16,  // mode2.seconds
                    0x1.a44e35388d68p-22,  // mode2.h2d
                    0x1.315350a7689ap-14,  // mode2.compute
                    0x1.319d1fcfc2e54p-16,  // mode2.p2p
                    0x1.4971f4ee95f4p-19,  // mode2.sync
                    0x1.368d31dd66abp-16,  // mode2.gather_start
                    0x1.89aa767806904p-16,  // mode2.gather_finish
                    0x1.2dd19565078afp-16,  // mode2.gpu0
                    0x1.2ee7e5bf85334p-16,  // mode2.gpu1
                    0x1.3487bcb434f9fp-16,  // mode2.gpu2
                    0x1.340c0ac4e0af4p-16,  // mode2.gpu3
                    0x1.d562423005fdcp-15,  // per_gpu_compute.gpu0
                    0x1.d076f18f40836p-15,  // per_gpu_compute.gpu1
                    0x1.d402748b1b864p-15,  // per_gpu_compute.gpu2
                    0x1.d5f498bf6e0d3p-15,  // per_gpu_compute.gpu3
                    0x1.d3f4104274053p-13,  // aggregate.compute
                    0x1.57bf69c2d36bp-20,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.2df4d246d6a08p-14,  // aggregate.p2p
                    0x1.2f3619a7e5752p-17,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, LookaheadSpilled) {
  expect_pinned(run_mttkrp(sim::make_default_platform(2, 1000.0),
                           BuildStorage::kSpilled,
                           SchedulingPolicy::kDynamicLookahead, false),
                {
                    0x1.4c2b5582ff8a6p-14,  // total_seconds
                    0x1.f41de5e28fb42p-16,  // mode0.seconds
                    0x1.c00d0d92096p-22,  // mode0.h2d
                    0x1.9114f44609786p-15,  // mode0.compute
                    0x1.71f2e46674561p-17,  // mode0.p2p
                    0x1.860f33e289bcp-22,  // mode0.sync
                    0x1.97a12cc8f29eap-16,  // mode0.gather_start
                    0x1.f41de5e28fb42p-16,  // mode0.gather_finish
                    0x1.943a7fc9ab404p-16,  // mode0.gpu0
                    0x1.8def68c267b09p-16,  // mode0.gpu1
                    0x1.9e81458967564p-16,  // mode1.seconds
                    0x1.a6f7e7b4db0cp-22,  // mode1.h2d
                    0x1.6c541ccd0e61ep-15,  // mode1.compute
                    0x1.7287c8cda5a6ap-18,  // mode1.p2p
                    0x1.1c7fa67512cp-24,  // mode1.sync
                    0x1.70304c6fb2a16p-16,  // mode1.gather_start
                    0x1.9e81458967564p-16,  // mode1.gather_finish
                    0x1.6c2092a955ed6p-16,  // mode1.gpu0
                    0x1.6c87a6f0c6d67p-16,  // mode1.gpu1
                    0x1.9e0e2aa0071f2p-16,  // mode2.seconds
                    0x1.773555f72788p-22,  // mode2.h2d
                    0x1.6c51891811f5cp-15,  // mode2.compute
                    0x1.7287c8cda5a6cp-18,  // mode2.p2p
                    0x1.f4f7094896p-25,  // mode2.sync
                    0x1.6fbd3186526a6p-16,  // mode2.gather_start
                    0x1.9e0e2aa0071f2p-16,  // mode2.gather_finish
                    0x1.6c2092a955ed9p-16,  // mode2.gpu0
                    0x1.6c827f86cdfe1p-16,  // mode2.gpu1
                    0x1.1b1ee94715c6dp-14,  // per_gpu_compute.gpu0
                    0x1.19be63ce7f214p-14,  // per_gpu_compute.gpu1
                    0x1.1a6ea68aca74p-13,  // aggregate.compute
                    0x1.378e92cf82fdp-20,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.723d569a0cfe6p-16,  // aggregate.p2p
                    0x1.05e6ff547096p-21,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, CostModel) {
  expect_pinned(run_mttkrp(hetero_platform(), BuildStorage::kResident,
                           SchedulingPolicy::kCostModel, false),
                {
                    0x1.673aba7b0ee11p-14,  // total_seconds
                    0x1.114af18bdff8dp-15,  // mode0.seconds
                    0x1.b94ed1db65a8p-17,  // mode0.h2d
                    0x1.43125b2ea68a6p-14,  // mode0.compute
                    0x1.2939a3ff67ee7p-15,  // mode0.p2p
                    0x1.3bcdbadf8baecp-18,  // mode0.sync
                    0x1.844f2a657621bp-16,  // mode0.gather_start
                    0x1.114af18bdff8dp-15,  // mode0.gather_finish
                    0x1.3e0900e684bc7p-16,  // mode0.gpu0
                    0x1.4f1c322c040d5p-16,  // mode0.gpu1
                    0x1.38023a75af24dp-16,  // mode0.gpu2
                    0x1.4721ff32623b2p-16,  // mode0.gpu3
                    0x1.bd927398ad812p-16,  // mode1.seconds
                    0x1.b94ed1db65a8p-17,  // mode1.h2d
                    0x1.337ddda83e242p-14,  // mode1.compute
                    0x1.2c3ebc1736c2p-16,  // mode1.p2p
                    0x1.f6c32bcd3de2p-20,  // mode1.sync
                    0x1.6dadd13994e46p-16,  // mode1.gather_start
                    0x1.bd927398ad812p-16,  // mode1.gather_finish
                    0x1.3e2550e190a25p-16,  // mode1.gpu0
                    0x1.3dbe3c9a1fb94p-16,  // mode1.gpu1
                    0x1.28ba11a812ff3p-16,  // mode1.gpu2
                    0x1.2959d77d35354p-16,  // mode1.gpu3
                    0x1.bcc2933bce118p-16,  // mode2.seconds
                    0x1.b94ed1db65a84p-17,  // mode2.h2d
                    0x1.3362cebbe3b3cp-14,  // mode2.compute
                    0x1.2d519cd5b92fap-16,  // mode2.p2p
                    0x1.b860c3c3d734p-20,  // mode2.sync
                    0x1.6cddf0dcb574cp-16,  // mode2.gather_start
                    0x1.bcc2933bce118p-16,  // mode2.gather_finish
                    0x1.3d6bc5fa92321p-16,  // mode2.gpu0
                    0x1.3e1b020d9ef17p-16,  // mode2.gpu1
                    0x1.294f88a943844p-16,  // mode2.gpu2
                    0x1.28b4ea3e1a26bp-16,  // mode2.gpu3
                    0x1.dccd0be153c86p-15,  // per_gpu_compute.gpu0
                    0x1.e57ab869e15cp-15,  // per_gpu_compute.gpu1
                    0x1.c505ea6382d42p-15,  // per_gpu_compute.gpu2
                    0x1.cc986076d8cb8p-15,  // per_gpu_compute.gpu3
                    0x1.d4f983c964312p-13,  // aggregate.compute
                    0x1.4afb1d648c3e1p-15,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.2b00e83aeff3ap-14,  // aggregate.p2p
                    0x1.13cb5b61e87a2p-17,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, CostModelPipelined) {
  expect_pinned(run_mttkrp(hetero_platform(), BuildStorage::kResident,
                           SchedulingPolicy::kCostModel, true),
                {
                    0x1.43def689514abp-14,  // total_seconds
                    0x1.ef219813e1cf1p-16,  // mode0.seconds
                    0x1.21b20f2ddbbap-21,  // mode0.h2d
                    0x1.43125b2ea68a6p-14,  // mode0.compute
                    0x1.2939a3ff67ee7p-15,  // mode0.p2p
                    0x1.52f06c72b95fcp-18,  // mode0.sync
                    0x1.50dadf6197ff2p-16,  // mode0.gather_start
                    0x1.ef219813e1cf1p-16,  // mode0.gather_finish
                    0x1.3e0900e684bc7p-16,  // mode0.gpu0
                    0x1.4f1c322c040d5p-16,  // mode0.gpu1
                    0x1.38023a75af24dp-16,  // mode0.gpu2
                    0x1.4721ff32623b2p-16,  // mode0.gpu3
                    0x1.90460a338f193p-16,  // mode1.seconds
                    0x1.077f09d23a2p-21,  // mode1.h2d
                    0x1.337ddda83e24p-14,  // mode1.compute
                    0x1.2c3ebc1736c2p-16,  // mode1.p2p
                    0x1.f52fee3bda0fp-19,  // mode1.sync
                    0x1.406167d4767c7p-16,  // mode1.gather_start
                    0x1.90460a338f193p-16,  // mode1.gather_finish
                    0x1.3e2550e190a25p-16,  // mode1.gpu0
                    0x1.3dbe3c9a1fb94p-16,  // mode1.gpu1
                    0x1.28ba11a812ff3p-16,  // mode1.gpu2
                    0x1.2959d77d35354p-16,  // mode1.gpu3
                    0x1.901437ddd4428p-16,  // mode2.seconds
                    0x1.334e0e9569fap-21,  // mode2.h2d
                    0x1.3362cebbe3b3ap-14,  // mode2.compute
                    0x1.2d519cd5b92fap-16,  // mode2.p2p
                    0x1.deccb9eaede4p-19,  // mode2.sync
                    0x1.402f957ebba5cp-16,  // mode2.gather_start
                    0x1.901437ddd4428p-16,  // mode2.gather_finish
                    0x1.3d6bc5fa92321p-16,  // mode2.gpu0
                    0x1.3e1b020d9ef17p-16,  // mode2.gpu1
                    0x1.294f88a943844p-16,  // mode2.gpu2
                    0x1.28b4ea3e1a26bp-16,  // mode2.gpu3
                    0x1.dccd0be153c86p-15,  // per_gpu_compute.gpu0
                    0x1.e57ab869e15cp-15,  // per_gpu_compute.gpu1
                    0x1.c505ea6382d42p-15,  // per_gpu_compute.gpu2
                    0x1.cc986076d8cb8p-15,  // per_gpu_compute.gpu3
                    0x1.d4f983c96431p-13,  // aggregate.compute
                    0x1.ae3f93cabfeap-20,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.2b00e83aeff3ap-14,  // aggregate.p2p
                    0x1.9e7760430eacap-17,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

Pins run_baseline(const std::string& name) {
  auto t = make_tensor(903, {96, 128, 160}, 8000, {0.5, 0.5, 0.5});
  Rng rng(904);
  FactorSet factors(t.dims(), 16, rng);
  auto platform = sim::make_default_platform(
      name == "equal-nnz" || name == "amped" ? 4 : 1, 100.0);
  const auto result = baselines::run_baseline(name, platform, t, factors,
                                              baselines::BaselineOptions{});
  EXPECT_TRUE(result.supported) << result.failure_reason;
  Pins pins;
  pins.emplace_back("total_seconds", result.total_seconds);
  pin_phases(pins, "timeline.", result.timeline);
  pin_phases(pins, "aggregate.", platform.aggregate_timeline());
  return pins;
}

TEST(SimGoldenTest, BaselineBlco) {
  expect_pinned(run_baseline("blco"), {
                    0x1.fe5f479fecdf1p-16,  // total_seconds
                    0x1.370f117c9a49ap-16,  // timeline.compute
                    0x1.8ea06c46a52aep-17,  // timeline.h2d
                    0x0p+0,  // timeline.d2h
                    0x0p+0,  // timeline.p2p
                    0x0p+0,  // timeline.sync
                    0x0p+0,  // timeline.host
                    0x1.370f117c9a49ap-16,  // aggregate.compute
                    0x1.8ea06c46a52aep-17,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x0p+0,  // aggregate.p2p
                    0x0p+0,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, BaselineMmCsf) {
  expect_pinned(run_baseline("mm-csf"), {
                    0x1.0786fab22f0eep-17,  // total_seconds
                    0x1.0786fab22f0eep-17,  // timeline.compute
                    0x0p+0,  // timeline.h2d
                    0x0p+0,  // timeline.d2h
                    0x0p+0,  // timeline.p2p
                    0x0p+0,  // timeline.sync
                    0x0p+0,  // timeline.host
                    0x1.0786fab22f0eep-17,  // aggregate.compute
                    0x0p+0,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x0p+0,  // aggregate.p2p
                    0x0p+0,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, BaselineHicoo) {
  expect_pinned(run_baseline("hicoo-gpu"), {
                    0x1.0e288daf9e67bp-16,  // total_seconds
                    0x1.0e288daf9e67bp-16,  // timeline.compute
                    0x0p+0,  // timeline.h2d
                    0x0p+0,  // timeline.d2h
                    0x0p+0,  // timeline.p2p
                    0x0p+0,  // timeline.sync
                    0x0p+0,  // timeline.host
                    0x1.0e288daf9e67bp-16,  // aggregate.compute
                    0x0p+0,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x0p+0,  // aggregate.p2p
                    0x0p+0,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, BaselineParti) {
  expect_pinned(run_baseline("parti-gpu"), {
                    0x1.0dfe5f3a41eb7p-12,  // total_seconds
                    0x1.0dfe5f3a41eb7p-12,  // timeline.compute
                    0x0p+0,  // timeline.h2d
                    0x0p+0,  // timeline.d2h
                    0x0p+0,  // timeline.p2p
                    0x0p+0,  // timeline.sync
                    0x0p+0,  // timeline.host
                    0x1.0dfe5f3a41eb7p-12,  // aggregate.compute
                    0x0p+0,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x0p+0,  // aggregate.p2p
                    0x0p+0,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, BaselineFlycoo) {
  expect_pinned(run_baseline("flycoo-gpu"), {
                    0x1.dbb695ff283fbp-18,  // total_seconds
                    0x1.dbb695ff283fbp-18,  // timeline.compute
                    0x0p+0,  // timeline.h2d
                    0x0p+0,  // timeline.d2h
                    0x0p+0,  // timeline.p2p
                    0x0p+0,  // timeline.sync
                    0x0p+0,  // timeline.host
                    0x1.dbb695ff283fbp-18,  // aggregate.compute
                    0x0p+0,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x0p+0,  // aggregate.p2p
                    0x0p+0,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, BaselineEqualNnz) {
  expect_pinned(run_baseline("equal-nnz"), {
                    0x1.cc8cf3d97c3afp-15,  // total_seconds
                    0x1.dabd6b1363698p-16,  // timeline.compute
                    0x1.f53901c839e7ap-17,  // timeline.h2d
                    0x1.4e33bfa013864p-15,  // timeline.d2h
                    0x0p+0,  // timeline.p2p
                    0x1.4918f4c05cc0bp-13,  // timeline.sync
                    0x1.1e54c672874dbp-15,  // timeline.host
                    0x1.dabd6b1363698p-16,  // aggregate.compute
                    0x1.f53901c839e7ap-17,  // aggregate.h2d
                    0x1.4e33bfa013864p-15,  // aggregate.d2h
                    0x0p+0,  // aggregate.p2p
                    0x1.4918f4c05cc0bp-13,  // aggregate.sync
                    0x1.1e54c672874dbp-15,  // aggregate.host
                });
}

struct Batch {
  std::vector<AmpedTensor> tensors;
  std::vector<FactorSet> factors;
};

Batch make_batch(int num_gpus) {
  Batch b;
  AmpedBuildOptions build;
  build.num_gpus = num_gpus;
  auto a = make_tensor(905, {512, 256, 256}, 30000);
  auto c = make_tensor(906, {300, 500, 128}, 20000, {0.4, 0.9, 0.3});
  for (const CooTensor* input : {&a, &c}) {
    Rng rng(907);
    b.factors.emplace_back(input->dims(), 16, rng);
    b.tensors.push_back(AmpedTensor::build(*input, build));
  }
  return b;
}

Pins run_composed(SchedulingPolicy policy) {
  const Batch b = make_batch(4);
  std::vector<BatchWorkload> workloads;
  for (std::size_t i = 0; i < b.tensors.size(); ++i) {
    workloads.push_back({&b.tensors[i], &b.factors[i]});
  }
  auto platform = hetero_platform();
  MttkrpOptions options;
  options.policy = policy;
  std::vector<std::vector<DenseMatrix>> outputs;
  const auto report = mttkrp_batch(platform, workloads, outputs, options);
  return pin_batch(report, platform);
}

TEST(SimGoldenTest, ComposedStatic) {
  expect_pinned(run_composed(SchedulingPolicy::kStaticGreedy), {
                    0x1.7f60aa080362p-13,  // total_seconds
                    0x1.0b98cb13ef42ap-14,  // step0.seconds
                    0x1.11dcfa176f9bep-14,  // step1.seconds
                    0x1.c2971dc94fcbp-15,  // step2.seconds
                    0x1.122723f83bdbap-14,  // tensor0.gpu0
                    0x1.150a51d486905p-14,  // tensor0.gpu1
                    0x1.99943f0f0aa1cp-15,  // tensor0.gpu2
                    0x1.93ac3315b008p-15,  // tensor0.gpu3
                    0x1.06a5498f1b8d8p-14,  // tensor1.gpu0
                    0x1.17cab52867f73p-14,  // tensor1.gpu1
                    0x1.97e0e362d0632p-15,  // tensor1.gpu2
                    0x1.94a539071114p-15,  // tensor1.gpu3
                    0x1.a4676b9937048p-15,  // gather.w0.i0.m0.start
                    0x1.eda2f3da8e92ap-15,  // gather.w0.i0.m0.finish
                    0x1.eda2f3da8e92ap-15,  // gather.w1.i0.m0.start
                    0x1.0b98cb13ef42ap-14,  // gather.w1.i0.m0.finish
                    0x1.b7ea7e76877e2p-15,  // gather.w0.i0.m1.start
                    0x1.dc1abd0b4b4d8p-15,  // gather.w0.i0.m1.finish
                    0x1.dc1abd0b4b4d8p-15,  // gather.w1.i0.m1.start
                    0x1.11dcfa176f9bep-14,  // gather.w1.i0.m1.finish
                    0x1.8bee1ce73038cp-15,  // gather.w0.i0.m2.start
                    0x1.b01e5b7bf4088p-15,  // gather.w0.i0.m2.finish
                    0x1.b01e5b7bf4088p-15,  // gather.w1.i0.m2.start
                    0x1.c2971dc94fcbp-15,  // gather.w1.i0.m2.finish
                    0x1.dca12ef2e5009p-12,  // aggregate.compute
                    0x1.18a636826a757p-14,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.11197a46e563fp-13,  // aggregate.p2p
                    0x1.4da7696451d27p-14,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, ComposedDynamic) {
  expect_pinned(run_composed(SchedulingPolicy::kDynamicQueue), {
                    0x1.5a6076f73311ap-13,  // total_seconds
                    0x1.ec1a5ea07c56ep-15,  // step0.seconds
                    0x1.e82226fd4a4cep-15,  // step1.seconds
                    0x1.9545563f05a2cp-15,  // step2.seconds
                    0x1.ef68b414b24c4p-15,  // tensor0.gpu0
                    0x1.e7cf25eda56d2p-15,  // tensor0.gpu1
                    0x1.c42adf4bb2e5p-15,  // tensor0.gpu2
                    0x1.bfc4021c8ce54p-15,  // tensor0.gpu3
                    0x1.c524f4985dc3bp-15,  // tensor1.gpu0
                    0x1.d52bc29b51a4cp-15,  // tensor1.gpu1
                    0x1.ce17672b7fd36p-15,  // tensor1.gpu2
                    0x1.d4d22b83467a9p-15,  // tensor1.gpu3
                    0x1.6f1cdcfffdc6bp-15,  // gather.w0.i0.m0.start
                    0x1.bb07971d9b667p-15,  // gather.w0.i0.m0.finish
                    0x1.bb07971d9b667p-15,  // gather.w1.i0.m0.start
                    0x1.ec1a5ea07c56ep-15,  // gather.w1.i0.m0.finish
                    0x1.72a8ca925cba8p-15,  // gather.w0.i0.m1.start
                    0x1.99883b03669b8p-15,  // gather.w0.i0.m1.finish
                    0x1.99883b03669b8p-15,  // gather.w1.i0.m1.start
                    0x1.e82226fd4a4cep-15,  // gather.w1.i0.m1.finish
                    0x1.593df1a459eep-15,  // gather.w0.i0.m2.start
                    0x1.813042d3e63ccp-15,  // gather.w0.i0.m2.finish
                    0x1.813042d3e63ccp-15,  // gather.w1.i0.m2.start
                    0x1.9545563f05a2cp-15,  // gather.w1.i0.m2.finish
                    0x1.d30c20a9a1a78p-12,  // aggregate.compute
                    0x1.18a636826a757p-14,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.1e40bb64a3207p-13,  // aggregate.p2p
                    0x1.8d5c3e3b09d6p-17,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, ComposedLookahead) {
  expect_pinned(run_composed(SchedulingPolicy::kDynamicLookahead), {
                    0x1.3a7807c1320f5p-13,  // total_seconds
                    0x1.c4d66d9cfdf8dp-15,  // step0.seconds
                    0x1.bd58bb2330d4fp-15,  // step1.seconds
                    0x1.67b0f644996f8p-15,  // step2.seconds
                    0x1.e7faf4f2689dp-15,  // tensor0.gpu0
                    0x1.cf2a21a00e81ep-15,  // tensor0.gpu1
                    0x1.d091cb814b6d7p-15,  // tensor0.gpu2
                    0x1.cdb630f3fdbc2p-15,  // tensor0.gpu3
                    0x1.c3a9c0f538f46p-15,  // tensor1.gpu0
                    0x1.cda1aab22f4fp-15,  // tensor1.gpu1
                    0x1.d1504e380cc21p-15,  // tensor1.gpu2
                    0x1.d81eea9072984p-15,  // tensor1.gpu3
                    0x1.41f117e4b20eep-15,  // gather.w0.i0.m0.start
                    0x1.922754fc59645p-15,  // gather.w0.i0.m0.finish
                    0x1.922754fc59645p-15,  // gather.w1.i0.m0.start
                    0x1.c4d66d9cfdf8dp-15,  // gather.w1.i0.m0.finish
                    0x1.46430d9a7f9e5p-15,  // gather.w0.i0.m1.start
                    0x1.6fd1afe7cf90fp-15,  // gather.w0.i0.m1.finish
                    0x1.6fd1afe7cf90fp-15,  // gather.w1.i0.m1.start
                    0x1.bd58bb2330d4fp-15,  // gather.w1.i0.m1.finish
                    0x1.2983d02ce8ep-15,  // gather.w0.i0.m2.start
                    0x1.51ff91bbb6654p-15,  // gather.w0.i0.m2.finish
                    0x1.51ff91bbb6654p-15,  // gather.w1.i0.m2.start
                    0x1.67b0f644996f8p-15,  // gather.w1.i0.m2.finish
                    0x1.d204f6eef4fcdp-12,  // aggregate.compute
                    0x1.afd0e62892ccp-20,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.22ae9a767d23ap-13,  // aggregate.p2p
                    0x1.fc7f4e40ffa7p-17,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                });
}

TEST(SimGoldenTest, GraphWindowCpdBatch) {
  const Batch b = make_batch(4);
  std::vector<const AmpedTensor*> tensors;
  for (const auto& t : b.tensors) tensors.push_back(&t);
  auto platform = sim::make_default_platform(4, 1000.0);
  CpdOptions options;
  options.rank = 8;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  options.graph_window = 2;
  BatchReport report;
  const auto results = cpd_batch(platform, tensors, options, &report);
  ASSERT_EQ(report.graph_dispatches, 2u);
  Pins pins = pin_batch(report, platform);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string r = "result" + std::to_string(i) + ".";
    pins.emplace_back(r + "mttkrp_sim_seconds", results[i].mttkrp_sim_seconds);
    pins.emplace_back(r + "h2d", results[i].h2d_seconds);
    pins.emplace_back(r + "compute", results[i].compute_seconds);
    pins.emplace_back(r + "p2p", results[i].p2p_seconds);
    pins.emplace_back(r + "sync", results[i].sync_seconds);
  }
  expect_pinned(pins, {
                    0x1.2daf67f843c8ep-11,  // total_seconds
                    0x1.91d25a2bbc27ep-12,  // step0.seconds
                    0x1.9318eb8996d3cp-13,  // step1.seconds
                    0x1.24a9dd6216953p-12,  // tensor0.gpu0
                    0x1.2812460885257p-12,  // tensor0.gpu1
                    0x1.2cfa146bdf7ebp-12,  // tensor0.gpu2
                    0x1.286eb47094d66p-12,  // tensor0.gpu3
                    0x1.19a22b57e31acp-12,  // tensor1.gpu0
                    0x1.2b4012ee55112p-12,  // tensor1.gpu1
                    0x1.2bd798c8f2baep-12,  // tensor1.gpu2
                    0x1.2a3757c8748ddp-12,  // tensor1.gpu3
                    0x1.1d344e5c17be3p-15,  // gather.w0.i0.m0.start
                    0x1.4232b57fbd5fcp-15,  // gather.w0.i0.m0.finish
                    0x1.10affa5cab0a7p-14,  // gather.w1.i0.m0.start
                    0x1.1b43f4717bf45p-14,  // gather.w1.i0.m0.finish
                    0x1.9286aab921da5p-14,  // gather.w0.i0.m1.start
                    0x1.9bc30bdfcfbb7p-14,  // gather.w0.i0.m1.finish
                    0x1.1232de5e91fa2p-13,  // gather.w1.i0.m1.start
                    0x1.1b3eee03c2eep-13,  // gather.w1.i0.m1.finish
                    0x1.52c70c9286613p-13,  // gather.w0.i0.m2.start
                    0x1.57653d25dd51cp-13,  // gather.w0.i0.m2.finish
                    0x1.90b1aa7f2ce61p-13,  // gather.w1.i0.m2.start
                    0x1.9318eb8996d4fp-13,  // gather.w1.i0.m2.finish
                    0x1.d7d8dc64e76b6p-13,  // gather.w0.i1.m0.start
                    0x1.e118762dd0d3cp-13,  // gather.w0.i1.m0.finish
                    0x1.0c71e2fe1b807p-12,  // gather.w1.i1.m0.start
                    0x1.0f16e1834fbaep-12,  // gather.w1.i1.m0.finish
                    0x1.2ce78f1539346p-12,  // gather.w0.i1.m1.start
                    0x1.2f36a75ee4acap-12,  // gather.w0.i1.m1.finish
                    0x1.515f539639bbp-12,  // gather.w1.i1.m1.start
                    0x1.55e55b68d234fp-12,  // gather.w1.i1.m1.finish
                    0x1.71a96ab033ee9p-12,  // gather.w0.i1.m2.start
                    0x1.73f882f9df66dp-12,  // gather.w0.i1.m2.finish
                    0x1.909eb9a687307p-12,  // gather.w1.i1.m2.start
                    0x1.91d25a2bbc27ep-12,  // gather.w1.i1.m2.finish
                    0x1.1d344e5c17bf8p-15,  // gather.w0.i2.m0.start
                    0x1.4232b57fbd61p-15,  // gather.w0.i2.m0.finish
                    0x1.10affa5cab0b8p-14,  // gather.w1.i2.m0.start
                    0x1.1b43f4717bf54p-14,  // gather.w1.i2.m0.finish
                    0x1.9286aab921db4p-14,  // gather.w0.i2.m1.start
                    0x1.9bc30bdfcfbc4p-14,  // gather.w0.i2.m1.finish
                    0x1.1232de5e91fa4p-13,  // gather.w1.i2.m1.start
                    0x1.1b3eee03c2ee4p-13,  // gather.w1.i2.m1.finish
                    0x1.52c70c928661p-13,  // gather.w0.i2.m2.start
                    0x1.57653d25dd518p-13,  // gather.w0.i2.m2.finish
                    0x1.90b1aa7f2ce4cp-13,  // gather.w1.i2.m2.start
                    0x1.9318eb8996d3cp-13,  // gather.w1.i2.m2.finish
                    0x1.ae2f15aad6bfbp-25,  // span.w0.i0.m0.start
                    0x1.1d344e5c17be3p-15,  // span.w0.i0.m0.finish
                    0x1.04d973b0c0465p-14,  // span.w0.i0.m1.start
                    0x1.9286aab921da5p-14,  // span.w0.i0.m1.finish
                    0x1.00ab25c26138bp-13,  // span.w0.i0.m2.start
                    0x1.52c70c9286613p-13,  // span.w0.i0.m2.finish
                    0x1.7ef83e1801235p-13,  // span.w0.i1.m0.start
                    0x1.d7d8dc64e76b6p-13,  // span.w0.i1.m0.finish
                    0x1.00a50a7f834c8p-12,  // span.w0.i1.m1.start
                    0x1.2ce78f1539346p-12,  // span.w0.i1.m1.finish
                    0x1.3fc4407483d73p-12,  // span.w0.i1.m2.start
                    0x1.71a96ab033ee9p-12,  // span.w0.i1.m2.finish
                    0x1.05b9814d7c746p-15,  // span.w1.i0.m0.start
                    0x1.10affa5cab0a7p-14,  // span.w1.i0.m0.finish
                    0x1.86c2d2ed5d26cp-14,  // span.w1.i0.m1.start
                    0x1.1232de5e91fa2p-13,  // span.w1.i0.m1.finish
                    0x1.417ee1ae1d66fp-13,  // span.w1.i0.m2.start
                    0x1.90b1aa7f2ce61p-13,  // span.w1.i0.m2.finish
                    0x1.c04bbb7a0592ep-13,  // span.w1.i1.m0.start
                    0x1.0c71e2fe1b807p-12,  // span.w1.i1.m0.finish
                    0x1.211f624eaa84ap-12,  // span.w1.i1.m1.start
                    0x1.515f539639bbp-12,  // span.w1.i1.m1.finish
                    0x1.602e1e6a61ee4p-12,  // span.w1.i1.m2.start
                    0x1.909eb9a687307p-12,  // span.w1.i1.m2.finish
                    0x1.ae2f15aad8p-25,  // span.w0.i2.m0.start
                    0x1.1d344e5c17bf8p-15,  // span.w0.i2.m0.finish
                    0x1.04d973b0c0468p-14,  // span.w0.i2.m1.start
                    0x1.9286aab921db4p-14,  // span.w0.i2.m1.finish
                    0x1.00ab25c261394p-13,  // span.w0.i2.m2.start
                    0x1.52c70c928661p-13,  // span.w0.i2.m2.finish
                    0x1.05b9814d7c758p-15,  // span.w1.i2.m0.start
                    0x1.10affa5cab0b8p-14,  // span.w1.i2.m0.finish
                    0x1.86c2d2ed5d27p-14,  // span.w1.i2.m1.start
                    0x1.1232de5e91fa4p-13,  // span.w1.i2.m1.finish
                    0x1.417ee1ae1d678p-13,  // span.w1.i2.m2.start
                    0x1.90b1aa7f2ce4cp-13,  // span.w1.i2.m2.finish
                    0x1.27a2c363d5f08p-9,  // aggregate.compute
                    0x1.63899292738p-21,  // aggregate.h2d
                    0x0p+0,  // aggregate.d2h
                    0x1.7d9afed12c498p-15,  // aggregate.p2p
                    0x0p+0,  // aggregate.sync
                    0x0p+0,  // aggregate.host
                    0x1.2daf67f843c8ep-11,  // result0.mttkrp_sim_seconds
                    0x0p+0,  // result0.h2d
                    0x0p+0,  // result0.compute
                    0x0p+0,  // result0.p2p
                    0x0p+0,  // result0.sync
                    0x1.2daf67f843c8ep-11,  // result1.mttkrp_sim_seconds
                    0x0p+0,  // result1.h2d
                    0x0p+0,  // result1.compute
                    0x0p+0,  // result1.p2p
                    0x0p+0,  // result1.sync
                });
}

}  // namespace
}  // namespace amped
