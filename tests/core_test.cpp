// Tests for the taxonomy engine and the system-builder facade (edc/core).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "edc/checkpoint/interrupt_policy.h"
#include "edc/core/system.h"
#include "edc/core/taxonomy.h"
#include "edc/sim/result_io.h"

namespace edc::core {
namespace {

// ------------------------------------------------------------ Taxonomy -----

SystemDescriptor find(const std::string& name) {
  for (const auto& d : canonical_catalogue()) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "missing catalogue entry " << name;
  return {};
}

TEST(Taxonomy, DesktopIsEnergyNeutralOnly) {
  const auto c = classify(find("desktop-pc"));
  EXPECT_TRUE(c.energy_neutral);
  EXPECT_FALSE(c.transient);
  EXPECT_FALSE(c.power_neutral);
  EXPECT_FALSE(c.energy_driven);
}

TEST(Taxonomy, SmartphoneIsEnergyNeutralOnly) {
  const auto c = classify(find("smartphone"));
  EXPECT_TRUE(c.energy_neutral);
  EXPECT_FALSE(c.transient);
  EXPECT_FALSE(c.energy_driven);
}

TEST(Taxonomy, LaptopWithHibernationIsTransientButNotEnergyDriven) {
  const auto c = classify(find("laptop-hibernate"));
  EXPECT_TRUE(c.energy_neutral);
  EXPECT_TRUE(c.transient);
  EXPECT_FALSE(c.energy_driven);  // not designed around harvesting
}

TEST(Taxonomy, KansalWsnIsEnergyNeutralNotEnergyDriven) {
  // Fig 2 places the energy-neutral WSN on the traditional side: plenty of
  // added storage makes the harvester look like a battery.
  const auto c = classify(find("wsn-kansal[3]"));
  EXPECT_TRUE(c.energy_neutral);
  EXPECT_FALSE(c.transient);
  EXPECT_FALSE(c.power_neutral);  // adaptation is slow/buffered, not Eq 3
  EXPECT_FALSE(c.energy_driven);
}

TEST(Taxonomy, HibernusFamilyIsTransientEnergyDriven) {
  for (const char* name : {"mementos[7]", "quickrecall[8]", "hibernus[9]",
                           "hibernus++[2]", "nvp[10]"}) {
    const auto c = classify(find(name));
    EXPECT_TRUE(c.transient) << name;
    EXPECT_TRUE(c.energy_driven) << name;
    EXPECT_FALSE(c.energy_neutral) << name;
    EXPECT_TRUE(c.at_practical_minimum) << name;
  }
}

TEST(Taxonomy, TaskBasedSystemsAreTransientEnergyDriven) {
  for (const char* name : {"wispcam[4]", "debs-burst[5]", "monjolo[6]"}) {
    const auto c = classify(find(name));
    EXPECT_TRUE(c.transient) << name;
    EXPECT_TRUE(c.energy_driven) << name;
  }
}

TEST(Taxonomy, PnMpsocIsPowerNeutralNotTransient) {
  const auto c = classify(find("pn-mpsoc[11]"));
  EXPECT_TRUE(c.power_neutral);
  EXPECT_TRUE(c.energy_neutral);  // paper: it sits on the energy-neutral axis
  EXPECT_FALSE(c.transient);
  EXPECT_TRUE(c.energy_driven);
}

TEST(Taxonomy, HibernusPnIsTransientAndPowerNeutral) {
  const auto c = classify(find("hibernus-pn[14]"));
  EXPECT_TRUE(c.transient);
  EXPECT_TRUE(c.power_neutral);
  EXPECT_TRUE(c.energy_driven);
}

TEST(Taxonomy, PowerNeutralRequiresSmallStorage) {
  SystemDescriptor d;
  d.name = "big-buffer-modulating";
  d.storage = 100.0;  // 100 J buffer
  d.modulates_power = true;
  d.adaptation = AdaptationKind::continuous;
  d.harvesting_in_design = true;
  d.added_storage = true;
  EXPECT_FALSE(classify(d).power_neutral);
  d.storage = 1e-3;
  EXPECT_TRUE(classify(d).power_neutral);
}

TEST(Taxonomy, StorageCoordinateIsLog10) {
  SystemDescriptor d;
  d.storage = 1e-3;
  EXPECT_NEAR(classify(d).storage_log10_j, -3.0, 1e-9);
}

TEST(Taxonomy, CatalogueCoversAllAdaptationKinds) {
  bool none = false, task = false, continuous = false;
  for (const auto& d : canonical_catalogue()) {
    none |= d.adaptation == AdaptationKind::none;
    task |= d.adaptation == AdaptationKind::task_based;
    continuous |= d.adaptation == AdaptationKind::continuous;
  }
  EXPECT_TRUE(none);
  EXPECT_TRUE(task);
  EXPECT_TRUE(continuous);
}

// ------------------------------------------------------------- Builder -----

TEST(Builder, QuickstartTwoLiner) {
  // The Fig 6 promise: wrap any workload in a couple of lines.
  auto system = SystemBuilder().sine_source(3.3, 2.0).workload("fft-small").build();
  const auto result = system.run(10.0);
  EXPECT_TRUE(result.mcu.completed);
}

TEST(Builder, RequiresSource) {
  SystemBuilder builder;
  builder.workload("crc");
  EXPECT_THROW(builder.build(), std::invalid_argument);
}

TEST(Builder, RequiresWorkload) {
  SystemBuilder builder;
  builder.sine_source(3.3, 2.0);
  EXPECT_THROW(builder.build(), std::invalid_argument);
}

TEST(Builder, DefaultPolicyIsHibernus) {
  auto system = SystemBuilder().sine_source(3.3, 2.0).workload("crc").build();
  EXPECT_EQ(system.policy_name(), "hibernus");
}

TEST(Builder, CustomProgramAndPolicy) {
  struct CountingPolicy final : checkpoint::PolicyBase {
    int boots = 0;
    void on_boot(mcu::Mcu& mcu, Seconds t) override {
      ++boots;
      mcu.start_program_fresh(t);
    }
    [[nodiscard]] std::string name() const override { return "counting"; }
  };
  auto policy = std::make_unique<CountingPolicy>();
  auto* policy_ptr = policy.get();
  auto system = SystemBuilder()
                    .dc_source(3.3)
                    .capacitance(47e-6)
                    .program(workloads::make_program("sense", 3))
                    .policy(std::move(policy))
                    .build();
  const auto result = system.run(5.0);
  EXPECT_TRUE(result.mcu.completed);
  EXPECT_EQ(policy_ptr->boots, 1);
  EXPECT_EQ(system.policy_name(), "counting");
}

// A policy instance runs exactly like the spec variant that names it. The
// quiescent engine plans sleep, wait and done spans only for a policy whose
// wakes_only_by_comparator() says so, so a policy() that hid that hook would
// fine-step those spans and move the row (Fig 7 configuration, macro on).
TEST(Builder, PolicyInstanceRunsLikeItsSpecVariant) {
  checkpoint::InterruptPolicy::Config config;
  config.capacitance = 47e-6;  // an instance cannot read it off the node
  config.margin = 2.2;
  config.restore_headroom = 0.35;
  sim::SimConfig sim;
  sim.macro_stepping = true;
  sim.stop_on_completion = false;
  const auto fig7 = [&] {
    SystemBuilder builder;
    builder.sine_source(3.3, 6.0).capacitance(config.capacitance).bleed(3000.0)
        .workload("fft", 7).sim_config(sim);
    return builder;
  };
  SystemBuilder by_instance = fig7();
  by_instance.policy(std::make_unique<checkpoint::HibernusPolicy>(config));
  auto system = by_instance.build();
  EXPECT_EQ(sim::serialize_result(system.run(2.0)),
            sim::serialize_result(fig7().policy_hibernus(config).build().run(2.0)));
  // The system owns the one instance, so it cannot be built twice.
  EXPECT_THROW((void)by_instance.build(), std::invalid_argument);
}

TEST(Builder, HibernusDefaultsToNodeCapacitance) {
  auto system = SystemBuilder()
                    .sine_source(3.3, 2.0)
                    .capacitance(100e-6)
                    .workload("crc")
                    .policy_hibernus()
                    .build();
  const auto& policy =
      dynamic_cast<const checkpoint::InterruptPolicy&>(system.policy());
  // Threshold for 100 uF should sit very close to v_min (lots of decay
  // energy available).
  EXPECT_LT(policy.hibernate_threshold(), 2.0);
}

TEST(Builder, WindSourceRunsTransientWorkload) {
  auto system = SystemBuilder()
                    .wind_source(7, 30.0)
                    .capacitance(22e-6)
                    .workload("sense", 3)
                    .policy_hibernus()
                    .build();
  const auto result = system.run(30.0);
  // The wind gusts must power at least some execution.
  EXPECT_GT(result.mcu.time_active, 0.0);
}

TEST(Builder, ReusableForSweeps) {
  for (Farads c : {10e-6, 22e-6, 47e-6}) {
    SystemBuilder builder;
    auto system = builder.sine_source(3.3, 2.0).capacitance(c).workload("crc", 3)
                      .policy_hibernus().build();
    const auto result = system.run(10.0);
    EXPECT_TRUE(result.mcu.completed) << c;
  }
}

}  // namespace
}  // namespace edc::core
