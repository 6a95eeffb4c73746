#pragma once

/// \file io.hpp
/// \brief Platform (de)serialization: load provider offers from JSON.
///
/// Schema:
/// \code{.json}
/// {
///   "name": "paper-table2",
///   "boot_delay_s": 100,
///   "bandwidth_MBps": 125,
///   "dc_storage_per_gb_month": 0.022,
///   "dc_transfer_per_gb": 0.055,
///   "dc_aggregate_bandwidth_MBps": 0,
///   "billing_quantum_s": 1,
///   "categories": [
///     {"name": "small", "speed": 1.0, "price_per_hour": 0.05,
///      "setup_cost": 0.005, "processors": 1}
///   ]
/// }
/// \endcode
/// Omitted fields default to the paper platform's values.

#include <string>

#include "platform/platform.hpp"

namespace cloudwf::platform {

/// Parses a platform from JSON text.
[[nodiscard]] Platform from_json(const std::string& text);

/// Loads a platform description from a JSON file.
[[nodiscard]] Platform load_json(const std::string& path);

/// Serializes \p platform to pretty-printed JSON.
[[nodiscard]] std::string to_json(const Platform& platform);

}  // namespace cloudwf::platform
