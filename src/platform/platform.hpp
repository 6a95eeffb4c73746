#pragma once

/// \file platform.hpp
/// \brief IaaS platform model: VM categories + datacenter (Section III-B).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "platform/vm.hpp"

namespace cloudwf::platform {

/// Immutable description of one IaaS platform offer.
///
/// Encapsulates everything Table II parameterizes: the VM categories, the
/// shared boot delay, the VM<->datacenter bandwidth and the datacenter
/// prices.  Build one with PlatformBuilder or use paper_platform() for the
/// reconstructed Table II instantiation.
class Platform {
 public:
  /// See PlatformBuilder; constructor validates and sorts categories by price.
  Platform(std::string name, std::vector<VmCategory> categories, Seconds boot_delay,
           BytesPerSec bandwidth, Dollars dc_storage_price_per_byte_second,
           Dollars dc_transfer_price_per_byte, BytesPerSec dc_aggregate_bandwidth,
           Seconds billing_quantum = 0);

  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- VM categories ------------------------------------------------------

  [[nodiscard]] std::size_t category_count() const { return categories_.size(); }
  [[nodiscard]] const VmCategory& category(CategoryId id) const;
  [[nodiscard]] std::span<const VmCategory> categories() const { return categories_; }

  /// Average speed s-bar over categories (Section IV-A budget estimates).
  [[nodiscard]] InstrPerSec mean_speed() const { return mean_speed_; }
  /// Category with the lowest price per second (ties: lowest id).
  [[nodiscard]] CategoryId cheapest_category() const { return cheapest_; }
  /// Category with the highest speed (ties: lowest price).
  [[nodiscard]] CategoryId fastest_category() const { return fastest_; }

  /// Boot delay t_boot, identical for all categories; uncharged.
  [[nodiscard]] Seconds boot_delay() const { return boot_delay_; }

  // ---- network ------------------------------------------------------------

  /// Per-VM link bandwidth to/from the datacenter, both directions.
  [[nodiscard]] BytesPerSec bandwidth() const { return bandwidth_; }

  /// Aggregate datacenter bandwidth shared by all concurrent transfers;
  /// 0 means unlimited (the paper's model assumption).  A finite value
  /// enables the contention mode that explains the LIGO anomaly (Section V-B).
  [[nodiscard]] BytesPerSec dc_aggregate_bandwidth() const { return dc_aggregate_bandwidth_; }
  [[nodiscard]] bool dc_contention_enabled() const { return dc_aggregate_bandwidth_ > 0; }

  // ---- datacenter prices ---------------------------------------------------

  /// Storage price in $/(byte * second); multiplied by the workflow's data
  /// footprint this yields the paper's c_h,DC time rate.
  [[nodiscard]] Dollars dc_storage_price_per_byte_second() const {
    return dc_storage_price_per_byte_second_;
  }
  /// Transfer price c_iof in $/byte for data entering/leaving the cloud.
  [[nodiscard]] Dollars dc_transfer_price_per_byte() const { return dc_transfer_price_per_byte_; }

  /// The paper's c_h,DC for a workflow storing \p footprint bytes.
  [[nodiscard]] Dollars dc_rate_for_footprint(Bytes footprint) const {
    return dc_storage_price_per_byte_second_ * footprint;
  }

  /// Billing granularity in seconds: VM usage is rounded up to a multiple
  /// of this quantum (Amazon's historical hourly billing = 3600).  0 means
  /// continuous billing — the paper's per-second billing is indistinguishable
  /// from continuous at workflow time scales, so it is the default.
  [[nodiscard]] Seconds billing_quantum() const { return billing_quantum_; }

  /// FNV-1a fingerprint of every field but the names.  Platforms with equal
  /// hashes schedule and simulate identically (sched::PlanCache's key).
  [[nodiscard]] std::uint64_t content_hash() const { return content_hash_; }

 private:
  std::string name_;
  std::vector<VmCategory> categories_;
  Seconds boot_delay_;
  BytesPerSec bandwidth_;
  Dollars dc_storage_price_per_byte_second_;
  Dollars dc_transfer_price_per_byte_;
  BytesPerSec dc_aggregate_bandwidth_;
  Seconds billing_quantum_;
  InstrPerSec mean_speed_ = 0;
  CategoryId cheapest_ = 0;
  CategoryId fastest_ = 0;
  std::uint64_t content_hash_ = 0;
};

/// Fluent builder for Platform.
class PlatformBuilder {
 public:
  explicit PlatformBuilder(std::string name = "platform");

  PlatformBuilder& add_category(VmCategory category);
  PlatformBuilder& boot_delay(Seconds seconds);
  PlatformBuilder& bandwidth(BytesPerSec bytes_per_second);
  PlatformBuilder& dc_storage_price_per_gb_month(Dollars dollars);
  PlatformBuilder& dc_transfer_price_per_gb(Dollars dollars);
  /// 0 (default) disables datacenter contention.
  PlatformBuilder& dc_aggregate_bandwidth(BytesPerSec bytes_per_second);
  /// 0 (default) bills continuously; 3600 emulates hourly billing.
  PlatformBuilder& billing_quantum(Seconds seconds);

  [[nodiscard]] Platform build() const;

 private:
  std::string name_;
  std::vector<VmCategory> categories_;
  Seconds boot_delay_ = 0;
  BytesPerSec bandwidth_ = 125e6;
  Dollars dc_storage_ = 0;
  Dollars dc_transfer_ = 0;
  BytesPerSec dc_aggregate_ = 0;
  Seconds billing_quantum_ = 0;
};

/// The reconstructed Table II platform: 3 categories with cost linear in
/// speed, 100 s uncharged boot, $0.005 setup, 125 MB/s links, $0.022/GB-month
/// storage and $0.055/GB external transfers (see DESIGN.md Section 2).
[[nodiscard]] Platform paper_platform();

/// paper_platform() with finite aggregate datacenter bandwidth
/// (\p factor times one VM link), for the contention experiments.
[[nodiscard]] Platform paper_platform_with_contention(double factor);

}  // namespace cloudwf::platform
