#include "platform/platform.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fnv1a.hpp"

namespace cloudwf::platform {

Platform::Platform(std::string name, std::vector<VmCategory> categories, Seconds boot_delay,
                   BytesPerSec bandwidth, Dollars dc_storage_price_per_byte_second,
                   Dollars dc_transfer_price_per_byte, BytesPerSec dc_aggregate_bandwidth,
                   Seconds billing_quantum)
    : name_(std::move(name)),
      categories_(std::move(categories)),
      boot_delay_(boot_delay),
      bandwidth_(bandwidth),
      dc_storage_price_per_byte_second_(dc_storage_price_per_byte_second),
      dc_transfer_price_per_byte_(dc_transfer_price_per_byte),
      dc_aggregate_bandwidth_(dc_aggregate_bandwidth),
      billing_quantum_(billing_quantum) {
  require(!categories_.empty(), "Platform: at least one VM category required");
  require(boot_delay_ >= 0, "Platform: negative boot delay");
  require(bandwidth_ > 0, "Platform: bandwidth must be positive");
  require(dc_storage_price_per_byte_second_ >= 0, "Platform: negative storage price");
  require(dc_transfer_price_per_byte_ >= 0, "Platform: negative transfer price");
  require(dc_aggregate_bandwidth_ >= 0, "Platform: negative aggregate bandwidth");
  require(billing_quantum_ >= 0, "Platform: negative billing quantum");
  for (const VmCategory& c : categories_) {
    require(!c.name.empty(), "Platform: category with empty name");
    require(c.speed > 0, "Platform: category speed must be positive (" + c.name + ")");
    require(c.price_per_second > 0, "Platform: category price must be positive (" + c.name + ")");
    require(c.setup_cost >= 0, "Platform: negative setup cost (" + c.name + ")");
    require(c.processors >= 1, "Platform: category needs >= 1 processor (" + c.name + ")");
  }

  // The paper sorts categories so that c_h,1 <= c_h,2 <= ... <= c_h,k.
  std::stable_sort(categories_.begin(), categories_.end(),
                   [](const VmCategory& a, const VmCategory& b) {
                     return a.price_per_second < b.price_per_second;
                   });

  InstrPerSec speed_sum = 0;
  for (CategoryId id = 0; id < categories_.size(); ++id) {
    const VmCategory& c = categories_[id];
    speed_sum += c.speed;
    if (c.price_per_second < categories_[cheapest_].price_per_second) cheapest_ = id;
    if (c.speed > categories_[fastest_].speed ||
        (c.speed == categories_[fastest_].speed &&
         c.price_per_second < categories_[fastest_].price_per_second))
      fastest_ = id;
  }
  mean_speed_ = speed_sum / static_cast<double>(categories_.size());

  Fnv1a hash;
  hash.u64(categories_.size());
  for (const VmCategory& c : categories_) {
    hash.f64(c.speed);
    hash.f64(c.price_per_second);
    hash.f64(c.setup_cost);
    hash.u64(c.processors);
  }
  for (const double field : {boot_delay_, bandwidth_, dc_storage_price_per_byte_second_,
                             dc_transfer_price_per_byte_, dc_aggregate_bandwidth_,
                             billing_quantum_})
    hash.f64(field);
  content_hash_ = hash.value();
}

const VmCategory& Platform::category(CategoryId id) const {
  require(id < categories_.size(), "Platform::category: id out of range");
  return categories_[id];
}

PlatformBuilder::PlatformBuilder(std::string name) : name_(std::move(name)) {}

PlatformBuilder& PlatformBuilder::add_category(VmCategory category) {
  categories_.push_back(std::move(category));
  return *this;
}

PlatformBuilder& PlatformBuilder::boot_delay(Seconds seconds) {
  boot_delay_ = seconds;
  return *this;
}

PlatformBuilder& PlatformBuilder::bandwidth(BytesPerSec bytes_per_second) {
  bandwidth_ = bytes_per_second;
  return *this;
}

PlatformBuilder& PlatformBuilder::dc_storage_price_per_gb_month(Dollars dollars) {
  dc_storage_ = units::per_gb_month(dollars);
  return *this;
}

PlatformBuilder& PlatformBuilder::dc_transfer_price_per_gb(Dollars dollars) {
  dc_transfer_ = units::per_gb(dollars);
  return *this;
}

PlatformBuilder& PlatformBuilder::dc_aggregate_bandwidth(BytesPerSec bytes_per_second) {
  dc_aggregate_ = bytes_per_second;
  return *this;
}

PlatformBuilder& PlatformBuilder::billing_quantum(Seconds seconds) {
  billing_quantum_ = seconds;
  return *this;
}

Platform PlatformBuilder::build() const {
  return Platform(name_, categories_, boot_delay_, bandwidth_, dc_storage_, dc_transfer_,
                  dc_aggregate_, billing_quantum_);
}

Platform paper_platform() {
  // Reconstructed Table II; see DESIGN.md Section 2 for the rationale.
  return PlatformBuilder("paper-table2")
      .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
      .add_category({"medium", 2.0, units::per_hour(0.10), 0.005, 1})
      .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
      .boot_delay(100.0)
      .bandwidth(125.0 * units::MB)
      .dc_storage_price_per_gb_month(0.022)
      .dc_transfer_price_per_gb(0.055)
      .build();
}

Platform paper_platform_with_contention(double factor) {
  require(factor > 0, "paper_platform_with_contention: factor must be positive");
  return PlatformBuilder("paper-table2-contended")
      .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
      .add_category({"medium", 2.0, units::per_hour(0.10), 0.005, 1})
      .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
      .boot_delay(100.0)
      .bandwidth(125.0 * units::MB)
      .dc_storage_price_per_gb_month(0.022)
      .dc_transfer_price_per_gb(0.055)
      .dc_aggregate_bandwidth(factor * 125.0 * units::MB)
      .build();
}

}  // namespace cloudwf::platform
